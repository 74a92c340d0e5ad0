"""Substitution matrices, alignment cost models and the weighted edit distance.

The dissimilarity between two sequences is the global-alignment cost under
a per-pair substitution cost table and a uniform per-symbol gap cost.  Cost
tables are derived from an integer similarity matrix in the NCBI plain-text
layout (PAM/BLOSUM style).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import _dp
from .errors import CostModelError, MatrixFormatError, SymbolError
from .sequences import Sequence, numbered_lines, read_text

RAW = "raw"
BY_MAX_LENGTH = "by-max-length"
NORMALIZATIONS = (RAW, BY_MAX_LENGTH)
# largest gap_weight, the gap cost in units of the mean off-diagonal cost
GAP_WEIGHT_MAX = 4.0
# largest magnitude of a similarity-matrix entry, which is stored as int64
_SCORE_MAX = int(np.iinfo(np.int64).max)


def check_gap_weight(gap_weight: float) -> None:
    """The one range rule of every gap weight: (0, GAP_WEIGHT_MAX]."""
    if not 0.0 < gap_weight <= GAP_WEIGHT_MAX:
        raise CostModelError(f"gap_weight must be in (0, {GAP_WEIGHT_MAX:g}], got {gap_weight}")


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square, symmetric integer similarity table over a symbol alphabet."""

    alphabet: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        n = len(self.alphabet)
        if self.scores.shape != (n, n):
            raise MatrixFormatError(
                f"score table is {self.scores.shape}, expected {(n, n)}"
            )
        if not np.array_equal(self.scores, self.scores.T):
            i, j = np.argwhere(self.scores != self.scores.T)[0]
            raise MatrixFormatError(
                f"asymmetric entries: S({self.alphabet[i]},{self.alphabet[j]})"
                f"={self.scores[i, j]} but S({self.alphabet[j]},{self.alphabet[i]})"
                f"={self.scores[j, i]}"
            )


def parse_similarity_matrix(text: str) -> SimilarityMatrix:
    """Parse an NCBI-layout matrix file: '#' comments, a header row of
    symbols, then one integer row per symbol."""
    alphabet: list[str] = []
    rows: dict[str, tuple[int, list[int]]] = {}

    for lineno, raw in numbered_lines(text):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not alphabet:
            for tok in tokens:
                if len(tok) != 1:
                    raise MatrixFormatError(
                        f"header symbol {tok!r} is not a single character",
                        line=lineno,
                    )
                if tok in alphabet:
                    raise MatrixFormatError(
                        f"duplicate header symbol {tok!r}", line=lineno
                    )
                alphabet.append(tok)
            continue
        sym = tokens[0]
        if sym not in alphabet:
            raise MatrixFormatError(f"unknown row symbol {sym!r}", line=lineno)
        if sym in rows:
            raise MatrixFormatError(f"duplicate row for symbol {sym!r}", line=lineno)
        entries = tokens[1:]
        if len(entries) != len(alphabet):
            raise MatrixFormatError(
                f"row {sym!r} has {len(entries)} entries, expected {len(alphabet)}",
                line=lineno,
            )
        try:
            values = [int(tok) for tok in entries]
        except ValueError as exc:
            raise MatrixFormatError(str(exc), line=lineno) from None
        too_big = [tok for tok, v in zip(entries, values) if abs(v) > _SCORE_MAX]
        if too_big:
            raise MatrixFormatError(
                f"entry {too_big[0]} does not fit in 64 bits", line=lineno
            )
        rows[sym] = (lineno, values)

    if not alphabet:
        raise MatrixFormatError("no header row found")
    missing = [a for a in alphabet if a not in rows]
    if missing:
        raise MatrixFormatError(
            f"table is not square: no rows for symbols {missing}"
        )
    scores = np.array([rows[a][1] for a in alphabet], dtype=np.int64)
    return SimilarityMatrix(tuple(alphabet), scores)


def load_similarity_matrix(path) -> SimilarityMatrix:
    return parse_similarity_matrix(read_text(path))


def pam120_path() -> Path:
    """Path of the bundled PAM120 matrix file (NCBI distribution layout)."""
    return Path(str(resources.files(__package__) / "data" / "PAM120"))


@dataclass(frozen=True)
class AlignmentCostModel:
    """Substitution costs in [0,1] with zero diagonal, plus a gap cost.

    `normalization` selects raw alignment cost or division by the longer
    sequence length.
    """

    alphabet: tuple[str, ...]
    sub_cost: np.ndarray
    gap_cost: float
    normalization: str = RAW

    def __post_init__(self):
        n = len(self.alphabet)
        c = self.sub_cost
        if c.shape != (n, n):
            raise CostModelError(f"cost table is {c.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(c)):
            raise CostModelError("cost table has non-finite entries")
        if c.min() < 0.0 or c.max() > 1.0:
            raise CostModelError("cost values must lie in [0, 1]")
        if np.any(c.diagonal() != 0.0):
            raise CostModelError("diagonal costs must be exactly 0")
        if not np.array_equal(c, c.T):
            raise CostModelError("cost table must be symmetric")
        if not (np.isfinite(self.gap_cost) and self.gap_cost >= 0.0):
            raise CostModelError("gap cost must be finite and >= 0")
        if self.normalization not in NORMALIZATIONS:
            raise CostModelError(
                f"unknown normalization {self.normalization!r}"
            )
        object.__setattr__(
            self, "_index", {a: i for i, a in enumerate(self.alphabet)}
        )

    def cost(self, a: str, b: str) -> float:
        idx = self._index
        return float(self.sub_cost[idx[a], idx[b]])

    def encode(self, seq: Sequence) -> np.ndarray:
        """Map symbols to alphabet indices, rejecting foreign symbols."""
        idx = self._index
        try:
            return np.array([idx[ch] for ch in seq.symbols], dtype=np.intp)
        except KeyError:
            for pos, ch in enumerate(seq.symbols):
                if ch not in idx:
                    raise SymbolError(seq.id, pos, ch) from None
            raise


def build_cost_model(
    m: SimilarityMatrix,
    gap_weight: float = 1.0,
    normalization: str = RAW,
) -> AlignmentCostModel:
    """Turn a similarity matrix into substitution costs.

    c(a,b) = [ (S(a,a)+S(b,b))/2 - S(a,b) ] / Z with Z the maximum of the
    numerator over all pairs, so costs span [0,1] with zero diagonal.  The
    gap cost is gap_weight times the mean off-diagonal cost.
    """
    check_gap_weight(gap_weight)
    s = m.scores.astype(np.float64)
    diag = np.diagonal(s)
    numer = (diag[:, None] + diag[None, :]) / 2.0 - s
    if numer.min() < 0.0:
        bad = np.argwhere(numer < 0.0)
        pairs = ", ".join(
            f"({m.alphabet[i]},{m.alphabet[j]})" for i, j in bad[:8]
        )
        raise CostModelError(
            f"similarity matrix is not diagonally dominant for pairs {pairs}"
        )
    z = numer.max()
    if z == 0.0:
        raise CostModelError("constant similarity matrix: all costs are zero")
    cost = numer / z
    np.fill_diagonal(cost, 0.0)
    n = len(m.alphabet)
    off_mean = cost.sum() / (n * n - n)
    return AlignmentCostModel(
        alphabet=m.alphabet,
        sub_cost=cost,
        gap_cost=float(gap_weight * off_mean),
        normalization=normalization,
    )


def alignment_cost_rows(
    query: np.ndarray,
    proto_mat: np.ndarray,
    proto_lens: np.ndarray,
    sub_cost: np.ndarray,
    gap: float,
) -> np.ndarray:
    """Global-alignment costs of one encoded query against a batch of
    encoded, padded targets.

    Runs the compiled kernel in `_dp.c`, built on the first call, or the
    numpy loop `numpy_cost_rows` when the kernel cannot be built.  The
    kernel aligns four targets at a time, one per lane, and every lane
    does the numpy loop's floating-point operations in the same order,
    so the two agree bit for bit whatever the batch's order or size.
    Batches whose neighbouring targets have similar lengths run fastest.
    Both paths check the batch first: a symbol code outside the cost
    table raises IndexError, and a target length outside the padded
    width or a cost table that does not fit raises ValueError.
    """
    query = np.ascontiguousarray(query, dtype=np.intp)
    proto_mat = np.ascontiguousarray(proto_mat, dtype=np.intp)
    proto_lens = np.ascontiguousarray(proto_lens, dtype=np.intp)
    sub_cost = np.ascontiguousarray(sub_cost, dtype=np.float64)
    n_targets, width = proto_mat.shape
    n_alpha = sub_cost.shape[0]
    if sub_cost.shape != (n_alpha, n_alpha) or proto_lens.shape != (n_targets,):
        raise ValueError("cost table or target lengths do not match the batch")
    if proto_lens.size and (proto_lens.min() < 0 or proto_lens.max() > width):
        raise ValueError("target lengths must lie within the padded width")
    for codes in (query, proto_mat):
        if codes.size and (codes.min() < 0 or codes.max() >= n_alpha):
            raise IndexError("symbol code outside the cost table")
    kernels = _dp.load()
    if kernels is None:
        return numpy_cost_rows(query, proto_mat, proto_lens, sub_cost, gap)
    out = np.empty(n_targets, dtype=np.float64)
    status = kernels.cost_rows(
        query.ctypes.data, len(query), proto_mat.ctypes.data, n_targets, width,
        proto_lens.ctypes.data, sub_cost.ctypes.data, n_alpha, float(gap),
        out.ctypes.data,
    )
    if status != 0:
        raise MemoryError("alignment kernel could not allocate its scratch row")
    return out


def numpy_cost_rows(
    query: np.ndarray,
    proto_mat: np.ndarray,
    proto_lens: np.ndarray,
    sub_cost: np.ndarray,
    gap: float,
) -> np.ndarray:
    """The numpy form of `alignment_cost_rows`: the fallback without a C
    compiler, and the reference the compiled kernel is tested against.

    Runs the classic dynamic program one query symbol at a time across the
    whole batch.  The within-row insertion recurrence
    cur[j] = min(m[j], cur[j-1] + gap) is solved as a prefix minimum of
    m[k] - k*gap, which keeps every step vectorized.  Padded columns never
    influence the value gathered at each target's true length.
    """
    n_targets, width = proto_mat.shape
    jg = gap * np.arange(width + 1, dtype=np.float64)
    state = np.tile(jg, (n_targets, 1))
    cand = np.empty((n_targets, width + 1), dtype=np.float64)
    for i, a in enumerate(query):
        np.minimum(
            state[:, :-1] + sub_cost[a, proto_mat],
            state[:, 1:] + gap,
            out=cand[:, 1:],
        )
        cand[:, 0] = (i + 1) * gap
        np.minimum.accumulate(cand - jg, axis=1, out=state)
        state += jg
    return state[np.arange(n_targets), proto_lens]


def dissimilarity_table(
    queries, targets, cm: AlignmentCostModel, threads: int = 1
) -> np.ndarray:
    """Alignment dissimilarities of each query (rows) to each target
    (columns), normalized as `cm` says.

    Every alignment table is built here.  The targets are encoded,
    ordered by length (stable) so the kernel's blocks of lanes are
    nearly full, and zero-padded to a common width once; each query is
    encoded once, and each row is one `alignment_cost_rows` call, written
    back in the caller's column order.  Each target's cost depends on no
    other target, so neither the order nor the number of worker threads
    changes the result.
    """
    codes = [cm.encode(t) for t in targets]
    lens = np.array([len(c) for c in codes], dtype=np.intp)
    order = np.argsort(lens, kind="stable")
    lens = lens[order]
    mat = np.zeros((len(codes), int(lens.max(initial=0))), dtype=np.intp)
    for row, k in enumerate(order):
        mat[row, : lens[row]] = codes[k]
    out = np.empty((len(queries), len(codes)), dtype=np.float64)

    def fill(i):
        query = cm.encode(queries[i])
        row = alignment_cost_rows(query, mat, lens, cm.sub_cost, cm.gap_cost)
        if cm.normalization == BY_MAX_LENGTH:
            denom = np.maximum(len(query), lens).astype(np.float64)
            with np.errstate(invalid="ignore"):
                row = np.where(denom > 0.0, row / denom, 0.0)
        out[i, order] = row

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(len(queries))))
    else:
        for i in range(len(queries)):
            fill(i)
    return out


def dissimilarities_to_targets(
    s: Sequence, targets, cm: AlignmentCostModel
) -> np.ndarray:
    """Vector of alignment dissimilarities from `s` to each target."""
    return dissimilarity_table([s], targets, cm)[0]


def levenshtein(s: Sequence, t: Sequence, cm: AlignmentCostModel) -> float:
    """Weighted global-alignment dissimilarity between two sequences.

    Nonnegative and exactly 0 for identical sequences.  Symmetric only
    to rounding: the DP's prefix-min form rounds through c - j*gap, so
    d(s, t) and d(t, s) can differ by about 1e-13.
    """
    return float(dissimilarity_table([s], [t], cm)[0, 0])
