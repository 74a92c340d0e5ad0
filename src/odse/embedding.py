"""Dissimilarity-space embedding against a set of prototype sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import (
    AlignmentCostModel,
    dissimilarities_to_targets,
    dissimilarity_table,
)
from .errors import OdseError
from .sequences import Sequence, csv_text

INITIAL = "initial"
EXPANSION_MEDOID = "expansion-medoid"

# euclidean_distances takes the rows of x in blocks of at most this many
# differences (one row at least), so the memory of a call does not grow
# with the product of its input sizes
_BLOCK = 1 << 14


@dataclass(frozen=True)
class RepresentationSet:
    """A model's prototype set: ordered prototypes and their provenance tags."""

    prototypes: tuple[Sequence, ...]
    provenance: tuple[str, ...]

    def __post_init__(self):
        if len(self.prototypes) < 1:
            raise OdseError("representation set must hold at least one prototype")
        if len(self.provenance) != len(self.prototypes):
            raise OdseError("provenance tags must match prototype count")
        for tag in self.provenance:
            if tag not in (INITIAL, EXPANSION_MEDOID):
                raise OdseError(f"unknown provenance tag {tag!r}")
        ids = [p.id for p in self.prototypes]
        if len(set(ids)) != len(ids):
            raise OdseError("duplicate prototype ids in representation set")

    def __len__(self):
        return len(self.prototypes)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.prototypes)


@dataclass(frozen=True)
class DissimilarityMatrix:
    """n x m table of row-to-column dissimilarities, with the row and column ids."""

    values: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]

    def __post_init__(self):
        n, m = self.values.shape
        if n != len(self.row_ids) or m != len(self.col_ids):
            raise OdseError("dissimilarity matrix ids do not match its shape")


def embed_one(s: Sequence, r: RepresentationSet, cm: AlignmentCostModel) -> np.ndarray:
    """Dissimilarity vector of one sequence against every prototype."""
    return dissimilarities_to_targets(s, r.prototypes, cm)


def compute_matrix(
    rows: list[Sequence],
    columns: list[Sequence],
    cm: AlignmentCostModel,
    threads: int = 1,
) -> DissimilarityMatrix:
    """Dissimilarity matrix of the sequences `rows` against `columns`."""
    if not rows:
        raise OdseError("cannot embed an empty dataset")
    if not columns:
        raise OdseError("cannot embed against an empty column set")
    return DissimilarityMatrix(
        values=dissimilarity_table(rows, columns, cm, threads),
        row_ids=tuple(s.id for s in rows),
        col_ids=tuple(s.id for s in columns),
    )


def euclidean_distances(x, y) -> np.ndarray:
    """Euclidean distances between the rows of x and the rows of y, as an
    x-rows by y-rows array.

    This is the one place the package measures distances between
    embedded vectors: the inner kNN and SVM and the MST vector score of
    the fitness use it.  Each block of rows of x goes through the same
    einsum as the whole table would.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise OdseError(
            f"vector dimension mismatch: shapes {x.shape} and {y.shape}"
        )
    sq = np.empty((x.shape[0], y.shape[0]))
    step = max(1, _BLOCK // max(1, y.size))
    for i in range(0, x.shape[0], step):
        diff = x[i:i + step, None, :] - y[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=sq[i:i + step])
    return np.sqrt(sq, out=sq)


def matrix_to_csv(d: DissimilarityMatrix) -> str:
    """CSV dump with a header row of column ids; floats use repr so a
    round trip is exact."""
    rows = ([rid, *(repr(float(v)) for v in row)] for rid, row in zip(d.row_ids, d.values))
    return csv_text(["id", *d.col_ids], rows)
