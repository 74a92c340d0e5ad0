"""Dataset ingestion, class assignment and the experimental splits.

Proteins carry a normalized solubility degree in [0,1].  Values at or
below 0.3 define class 0 (insoluble), values at or above 0.7 define
class 1 (soluble); everything between is unassigned and excluded from the
class-based splits.  Splits are reproducible from (name, seed) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import AlignmentCostModel
from .embedding import RepresentationSet, compute_matrix
from .errors import DatasetError, is_integer
from .sequences import Sequence, csv_text, numbered_lines, read_fasta, read_text

INSOLUBLE_MAX = 0.3
SOLUBLE_MIN = 0.7

DS200 = "DS-200"
DS1811 = "DS-1811"
DS1811_2 = "DS-1811-2"
SPLIT_NAMES = (DS200, DS1811, DS1811_2)
# training proteins per class: k-medoids picks of DS-1811, random draws of
# DS-1811-2
DS1811_INSOLUBLE = 110
DS1811_SOLUBLE = 70
DS1811_2_PER_CLASS = 100


@dataclass(frozen=True)
class LabeledSequence:
    """A sequence with its solubility degree and derived class label.

    label is 0 (insoluble), 1 (soluble) or None when the solubility falls
    in the unassigned middle band.
    """

    sequence: Sequence
    solubility: float
    label: int | None = field(init=False, default=None)

    def __post_init__(self):
        if not 0.0 <= self.solubility <= 1.0:
            raise DatasetError(
                f"sequence {self.sequence.id!r}: solubility {self.solubility} "
                "outside [0, 1]"
            )
        if self.solubility <= INSOLUBLE_MAX:
            object.__setattr__(self, "label", 0)
        elif self.solubility >= SOLUBLE_MIN:
            object.__setattr__(self, "label", 1)


@dataclass(frozen=True)
class SplitSpec:
    name: str = DS200
    seed: int = 0
    resamples: int = 10

    def __post_init__(self):
        if self.name not in SPLIT_NAMES:
            raise DatasetError(f"unknown split {self.name!r}")
        for name in ("seed", "resamples"):
            if not is_integer(getattr(self, name)):
                raise DatasetError(f"split {name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise DatasetError(f"split seed must be non-negative, got {self.seed}")
        if self.resamples < 1:
            raise DatasetError("resamples must be at least 1")


def read_solubility_table(text: str) -> dict[str, float]:
    """Parse a two-column id/solubility table.

    Fields are separated by a tab when one is present, otherwise by a
    comma; a row must hold exactly two fields and a non-empty id.  Blank
    lines and '#' comments are skipped; the first other line may be a
    header, whose second field is not a number.
    """
    table: dict[str, float] = {}
    first = True
    for lineno, raw in numbered_lines(text):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header_allowed, first = first, False
        sep = "\t" if "\t" in line else ","
        parts = [p.strip() for p in line.split(sep)]
        if len(parts) != 2:
            raise DatasetError(
                f"line {lineno}: expected 2 fields 'id{sep}solubility', got {len(parts)}"
            )
        if not parts[0]:
            raise DatasetError(f"line {lineno}: empty id")
        try:
            value = float(parts[1])
        except ValueError:
            if header_allowed:
                continue
            raise DatasetError(
                f"line {lineno}: solubility {parts[1]!r} is not a number"
            ) from None
        if not 0.0 <= value <= 1.0:
            raise DatasetError(
                f"line {lineno}: solubility {value} outside [0, 1]"
            )
        if parts[0] in table:
            raise DatasetError(f"line {lineno}: duplicate id {parts[0]!r}")
        table[parts[0]] = value
    if not table:
        raise DatasetError("solubility table holds no rows")
    return table


def load_dataset(fasta_path, solubility_table_path) -> list[LabeledSequence]:
    """Join a FASTA file with its solubility table, in FASTA order.

    The id sets must match exactly; any difference is reported in full
    (truncated to the first few ids per direction).
    """
    seqs = read_fasta(fasta_path)
    table = read_solubility_table(read_text(solubility_table_path))
    fasta_ids = {s.id for s in seqs}
    missing_solubility = sorted(fasta_ids - table.keys())
    missing_fasta = sorted(table.keys() - fasta_ids)
    if missing_solubility or missing_fasta:
        parts = []
        if missing_solubility:
            parts.append(
                f"{len(missing_solubility)} ids lack a solubility entry "
                f"(first: {missing_solubility[:5]})"
            )
        if missing_fasta:
            parts.append(
                f"{len(missing_fasta)} table ids lack a FASTA record "
                f"(first: {missing_fasta[:5]})"
            )
        raise DatasetError("; ".join(parts))
    return [LabeledSequence(s, table[s.id]) for s in seqs]


def class_members(data, label: int) -> list[LabeledSequence]:
    return [d for d in data if d.label == label]


# --------------------------------------------------------------------------
# k-medoids on a precomputed distance matrix


def medoid(dist: np.ndarray, members) -> int:
    """The one of members (increasing indices) whose summed dissimilarity
    to all of members on dist is smallest, ties to the lowest index."""
    members = np.asarray(members)
    return int(members[np.argmin(dist[np.ix_(members, members)].sum(axis=0))])


def k_medoids(dist: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """Indices of k medoids under a dense symmetric distance matrix.

    Seeding follows the ++-style rule (next seed drawn proportionally to
    the squared distance to the nearest chosen seed); the refinement loop
    alternates assignment and per-cluster medoid recomputation, capped at
    50 iterations.  Degenerate duplicates are topped up with the lowest
    unused indices so exactly k distinct members come back.
    """
    n = dist.shape[0]
    if not 1 <= k <= n:
        raise DatasetError(f"cannot pick {k} medoids from {n} points")
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        dmin = dist[:, chosen].min(axis=1)
        weights = dmin * dmin
        total = weights.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=weights / total))
        else:
            pick = next(i for i in range(n) if i not in chosen)
        chosen.append(pick)

    medoids = chosen
    for _ in range(50):
        assign = np.argmin(dist[:, medoids], axis=1)
        updated = []
        for c in range(k):
            members = np.where(assign == c)[0]
            updated.append(medoid(dist, members) if len(members) else medoids[c])
        if updated == medoids:
            break
        medoids = updated

    unique = list(dict.fromkeys(medoids))
    if len(unique) < k:
        filler = (i for i in range(n) if i not in unique)
        while len(unique) < k:
            unique.append(next(filler))
    return unique


# --------------------------------------------------------------------------
# splits; each returns (train, test) as lists of (Sequence, label)


def make_ds200(data, seed: int):
    """100 most and 100 least soluble proteins, labeled by group, split
    70/70 train and 30/30 test with a seeded stratified draw."""
    if len(data) < 200:
        raise DatasetError(f"need at least 200 proteins, got {len(data)}")
    low = sorted(data, key=lambda d: (d.solubility, d.sequence.id))[:100]
    high = sorted(data, key=lambda d: (-d.solubility, d.sequence.id))[:100]
    overlap = {d.sequence.id for d in low} & {d.sequence.id for d in high}
    if overlap:
        raise DatasetError(
            "solubility ties make the extreme groups overlap "
            f"(e.g. {sorted(overlap)[:3]})"
        )
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label, group in ((0, low), (1, high)):
        perm = rng.permutation(len(group))
        shuffled = [group[int(i)] for i in perm]
        train += [(g.sequence, label) for g in shuffled[:70]]
        test += [(g.sequence, label) for g in shuffled[70:]]
    return train, test


def _per_class_split(data, seed: int, counts, pick):
    """(train, test) of a per-class split: counts[label] training proteins
    of each class, class 0 first, chosen by pick(members, count, rng) as
    member indices under one generator seeded with seed; every other
    class-assigned protein goes to the test set, in data order."""
    groups = [(label, class_members(data, label), count) for label, count in enumerate(counts)]
    for label, members, count in groups:
        if len(members) < count:
            raise DatasetError(
                f"class {label} holds {len(members)} proteins, need {count}"
            )
    rng = np.random.default_rng(seed)
    train = []
    for label, members, count in groups:
        picked = pick(members, count, rng)
        train.extend((members[int(i)].sequence, label) for i in sorted(picked))
    chosen_ids = {s.id for s, _ in train}
    test = [
        (d.sequence, d.label)
        for d in data
        if d.label is not None and d.sequence.id not in chosen_ids
    ]
    return train, test


def make_ds1811(
    data,
    seed: int,
    cm: AlignmentCostModel,
    threads: int = 1,
):
    """Training prototypes picked per class by k-medoids under the
    input-space alignment distance; every other class-assigned protein
    goes to the test set."""

    def medoids(members, count, rng):
        if count == len(members):
            return range(count)
        seqs = [m.sequence for m in members]
        dmat = compute_matrix(seqs, RepresentationSet(tuple(seqs)), cm, threads).values
        return k_medoids(dmat, count, rng)

    return _per_class_split(data, seed, (DS1811_INSOLUBLE, DS1811_SOLUBLE), medoids)


def make_ds1811_2(data, seed: int):
    """Seeded uniform draw of DS1811_2_PER_CLASS training proteins per class;
    the remaining class-assigned proteins form the test set."""
    return _per_class_split(
        data,
        seed,
        (DS1811_2_PER_CLASS, DS1811_2_PER_CLASS),
        lambda members, count, rng: rng.choice(len(members), size=count, replace=False),
    )


def make_split(
    name: str,
    data,
    seed: int,
    cm: AlignmentCostModel | None = None,
    threads: int = 1,
):
    if name == DS200:
        return make_ds200(data, seed)
    if name == DS1811:
        if cm is None:
            raise DatasetError(f"{DS1811} needs a cost model for medoid selection")
        return make_ds1811(data, seed, cm, threads)
    if name == DS1811_2:
        return make_ds1811_2(data, seed)
    raise DatasetError(f"unknown split {name!r}")


def solubility_histogram_csv(data) -> str:
    """Histogram of solubility degrees over [0,1] in 20 equal bins, as CSV
    rows of bin_low, bin_high, count."""
    counts, edges = np.histogram([d.solubility for d in data], bins=20, range=(0.0, 1.0))
    rows = ([repr(float(lo)), repr(float(hi)), int(c)]
            for lo, hi, c in zip(edges, edges[1:], counts))
    return csv_text(["bin_low", "bin_high", "count"], rows)
