"""Poincare-ball geometry over a vocabulary of pretrained word vectors.

Loads embedding files, computes ball distances and k-nearest-neighbor
structures, and assembles the two sparse term-term matrices the pipeline
runs on: a real-valued similarity matrix (neighborhood-normalized,
thresholded) and a binary hierarchy matrix (k-NN adjacency). A Euclidean
mode swaps the ball metric for cosine similarity, leaving everything
downstream unchanged.

An `EmbeddingTable` holds the covered terms' ascending vocabulary indices
and one vector row per index; a term's row is found by binary search over
the indices. Both matrices and `knn` slice one sorted neighbor table per
table; the similarity normalizer is an exact broadcast over blocks of
neighborhoods, with the arithmetic of `poincare_distance`. Both matrices
are numpy CSR arrays filled row by row from that table.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary, utf8_lines
from .errors import ConfigurationError, ContractError, EmbeddingParseError
from .settings import EUCLIDEAN, HYPERBOLIC, SPACES
from .sparse_io import CsrArrays, index_dtype, row_positions

log = logging.getLogger(__name__)

# Vectors at or outside the unit sphere are pulled back to this norm.
_BALL_RADIUS = 1.0 - 1e-5
_LOW_COVERAGE = 0.10
# Float64 values per temporary array of the geometry kernel (0.5 MB).
_BLOCK_VALUES = 1 << 16


def _sq_norms(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean norms along the last axis of x, or of x - y broadcast.

    This is the single definition of the norm. It accumulates dimension by
    dimension, which keeps every distance path (scalar, row, block, pairwise)
    bitwise equal to a scalar loop; the test oracles rely on that. Taking
    the difference inside the loop avoids materializing it in full.
    """
    x = np.atleast_2d(x)
    shape = x.shape if y is None else np.broadcast_shapes(x.shape, y.shape)
    acc = np.zeros(shape[:-1])
    for k in range(x.shape[-1]):
        t = x[..., k] if y is None else x[..., k] - y[..., k]
        acc = acc + t * t
    return acc


def poincare_distance(u, v) -> float:
    """Ball distance arcosh(1 + 2|u-v|^2 / ((1-|u|^2)(1-|v|^2))).

    Requires |u| < 1 and |v| < 1. Rounding can push the arcosh argument
    slightly below 1; it is clamped there, giving distance 0.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    diff_sq = float(_sq_norms(u - v)[0])
    denom = (1.0 - float(_sq_norms(u)[0])) * (1.0 - float(_sq_norms(v)[0]))
    arg = 1.0 + 2.0 * diff_sq / denom
    if arg < 1.0:
        arg = 1.0
    return float(np.arccosh(arg))


def _ball_distances(a, sq_a, b, sq_b) -> np.ndarray:
    """Ball distances between the rows of a (..., p, d) and b (..., q, d): (..., p, q).

    `sq_a` and `sq_b` are the rows' squared norms from `_sq_norms`.
    """
    diff_sq = _sq_norms(b[..., None, :, :], a[..., :, None, :])
    denom = (1.0 - sq_a)[..., :, None] * (1.0 - sq_b)[..., None, :]
    arg = 1.0 + 2.0 * diff_sq / denom
    np.maximum(arg, 1.0, out=arg)
    return np.arccosh(arg)


def poincare_distances(point: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distances from one ball point to each row of `points`."""
    point = np.asarray(point, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _ball_distances(point[None, :], _sq_norms(point), points, _sq_norms(points))[0]


def euclidean_cosine(u, v) -> float:
    """Cosine similarity in [-1, 1]; defined as 0 when either vector is zero."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = float(np.sqrt(_sq_norms(u)[0]))
    nv = float(np.sqrt(_sq_norms(v)[0]))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


@dataclass
class EmbeddingTable:
    """Dense vectors for the vocabulary terms found in an embedding file.

    `matrix` holds one row per covered term; `term_indices` maps those rows
    back to vocabulary positions (ascending). The vectors are immutable
    after construction; `_neighbors` memoizes the widest `_neighbor_table`.
    """

    space: str
    vocab_size: int
    term_indices: np.ndarray  # ascending vocabulary indices, one per row
    matrix: np.ndarray  # (n_covered, dim)
    _neighbors: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def coverage(self) -> float:
        return len(self.term_indices) / self.vocab_size if self.vocab_size else 0.0

    def row(self, term_index: int) -> int:
        """Matrix row of one vocabulary index; raises on uncovered terms."""
        row = int(np.searchsorted(self.term_indices, term_index))
        if row == self.term_indices.size or self.term_indices[row] != term_index:
            raise ContractError(f"term index {term_index} has no embedding")
        return row

    def vector(self, term_index: int) -> np.ndarray:
        """Vector for one vocabulary index; raises on uncovered terms."""
        return self.matrix[self.row(term_index)]

    def _distances(self, a, b=slice(None)) -> np.ndarray:
        """Distances between the rows indexed by a (..., p) and by b (..., q): (..., p, q).

        Cosine similarities take one matrix-vector product per row of a, the
        same BLAS call as `x[b] @ x[a_row]`; a matrix-matrix product rounds
        differently. A zero vector has cosine similarity 0 to everything.
        """
        xa, xb = self.matrix[a], self.matrix[b]
        sq_a, sq_b = _sq_norms(xa), _sq_norms(xb)
        if self.space == HYPERBOLIC:
            return _ball_distances(xa, sq_a, xb, sq_b)
        sims = np.matmul(xb[..., None, :, :], xa[..., :, :, None])[..., 0]
        scale = np.sqrt(sq_b)[..., None, :] * np.sqrt(sq_a)[..., :, None]
        nonzero = (sq_b[..., None, :] > 0.0) & (sq_a[..., :, None] > 0.0)
        cos = np.zeros(sims.shape)
        np.divide(sims, scale, out=cos, where=nonzero)
        return 1.0 - cos


@dataclass
class Neighborhood:
    """Ranked nearest terms around a center, center itself at rank 0."""

    center: int
    members: list[tuple[int, float]]

    def member_indices(self) -> list[int]:
        return [t for t, _ in self.members]


@dataclass
class TermSimilarityMatrix:
    """Sparse m x m term similarity with entries in [0, 1].

    Row w holds neighborhood-normalized similarities of w to terms in its
    own k_s-neighborhood that passed the alpha threshold; the matrix is
    asymmetric by construction. Uncovered terms keep a bare unit diagonal.
    Columns are sorted within each row and no zero is stored.
    """

    entries: CsrArrays


@dataclass
class TermHierarchyMatrix:
    """Sparse binary m x m adjacency: (w, w') = 1 iff w' is in w's k_h-neighborhood.

    Columns are sorted within each row.
    """

    entries: CsrArrays


def load_embeddings(path, vocab: Vocabulary, space: str = HYPERBOLIC) -> EmbeddingTable:
    """Read a word-vector text file, keeping only vocabulary terms.

    Format: optional "<count> <dim>" header, then one term per line followed
    by `dim` decimal values. In hyperbolic mode vectors with norm >= 1 are
    radially projected back inside the ball. Coverage below 10% of the
    vocabulary logs a warning but is not an error. A vocabulary term's
    vector with a nan or infinite component, or whose squared norm
    overflows float64, is a parse error naming its line; so is, in
    Euclidean space, a nonzero vector whose squared norm underflows to 0,
    which would read as the zero vector although cosine ignores scale.
    """
    if space not in SPACES:
        raise ConfigurationError(f"unknown space {space!r}; expected one of {SPACES}")
    vectors: dict[int, tuple[int, np.ndarray]] = {}  # vocabulary index -> (line, vector)
    dim = None
    for lineno, line in utf8_lines(path, EmbeddingParseError):
        parts = line.split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                continue  # header line
        if dim is None:
            dim = len(parts) - 1
            if dim < 1:
                raise EmbeddingParseError(f"{path}: line has no vector components", lineno)
        if len(parts) != dim + 1:
            raise EmbeddingParseError(
                f"{path}: expected {dim} components, found {len(parts) - 1}", lineno
            )
        term = parts[0]
        idx = vocab.index.get(term)
        if idx is None or idx in vectors:
            continue
        try:
            vec = np.array([float(p) for p in parts[1:]], dtype=float)
        except ValueError as exc:
            raise EmbeddingParseError(f"{path}: bad vector component: {exc}", lineno) from None
        if not np.isfinite(vec).all():
            raise EmbeddingParseError(f"{path}: non-finite vector component", lineno)
        vectors[idx] = (lineno, vec)

    indices = np.array(sorted(vectors), dtype=np.int64)
    rows = [vectors[i][1] for i in indices]
    matrix = np.vstack(rows) if rows else np.zeros((0, dim or 1))
    with np.errstate(over="ignore"):
        sq_norms = _sq_norms(matrix)
    for what, bad in (
        ("overflows", np.isinf(sq_norms)),
        ("underflows", (sq_norms == 0) & matrix.any(axis=1) & (space == EUCLIDEAN)),
    ):
        if bad.any():
            lineno = min(vectors[i][0] for i in indices[bad])
            raise EmbeddingParseError(f"{path}: vector norm {what} float64", lineno)
    if space == HYPERBOLIC:
        norms = np.sqrt(sq_norms)
        outside = norms >= 1.0
        if outside.any():
            matrix[outside] *= (_BALL_RADIUS / norms[outside])[:, None]
            log.info("projected %d vectors back inside the unit ball", int(outside.sum()))

    table = EmbeddingTable(
        space=space, vocab_size=len(vocab), term_indices=indices, matrix=matrix
    )
    level = logging.WARNING if table.coverage < _LOW_COVERAGE else logging.INFO
    log.log(
        level,
        "embedding coverage %.1f%% (%d of %d vocabulary terms)",
        100.0 * table.coverage, len(indices), len(vocab),
    )
    return table


def _neighbor_table(table: EmbeddingTable, k: int):
    """Rows of each covered term's min(k, n) nearest covered terms, and their distances.

    The center comes first at distance 0, even among exact duplicates of
    itself. The others rank on (distance, vocabulary index): rows ascend
    with vocabulary index, so a stable sort breaks ties toward the lower one.
    The widest table built is memoized on `table`; a narrower request slices
    it, which equals building it directly because the ranking is a total order.
    """
    n = len(table.term_indices)
    k = min(k, n)
    if table._neighbors is None or table._neighbors[0].shape[1] < k:
        order = np.empty((n, k), dtype=np.intp)
        near = np.empty((n, k))
        step = max(1, _BLOCK_VALUES // max(n, 1))
        for i in range(0, n, step):
            centers = np.arange(i, min(i + step, n))
            dist = table._distances(centers)
            dist[centers - i, centers] = -np.inf
            order[centers] = np.argsort(dist, axis=1, kind="stable")[:, :k]
            near[centers] = np.take_along_axis(dist, order[centers], axis=1)
        near[:, :1] = 0.0
        table._neighbors = (order, near)
    order, near = table._neighbors
    return order[:, :k], near[:, :k]


def _neighborhood_similarities(table: EmbeddingTable, members: np.ndarray, center_dists):
    """1 - d / spread for neighborhoods given as rows of `members`, center first.

    `center_dists` holds each member's distance from its center; spread is
    the largest distance over all member pairs. Blocks of neighborhoods, or
    of member rows when k is large, bound the temporaries by `_BLOCK_VALUES`.
    """
    n, k = members.shape
    width = max(k, table.matrix.shape[1])  # pairs and gathered vectors per member row
    spread = np.full(n, -np.inf)
    per_block = max(1, _BLOCK_VALUES // max(k * width, 1))
    rows = max(1, min(k, _BLOCK_VALUES // width))
    for i in range(0, n, per_block):
        block = members[i : i + per_block]
        for j in range(0, k, rows):
            pairs = table._distances(block[:, j : j + rows], block)
            np.maximum(spread[i : i + per_block], pairs.max(axis=(1, 2)),
                       out=spread[i : i + per_block])
    ratio = np.zeros((n, k))
    np.divide(center_dists, spread[:, None], out=ratio, where=spread[:, None] != 0.0)
    return 1.0 - ratio


def knn(table: EmbeddingTable, w: int, k: int) -> Neighborhood:
    """The k nearest covered terms to w, w itself at rank 0.

    Neighborhood size k counts the center, so k = 1 yields the center alone.
    Distance ties between candidates break toward the lower vocabulary index.
    If fewer than k terms are covered, all of them are returned.
    """
    if k < 1:
        raise ConfigurationError("neighborhood size must be >= 1")
    row = table.row(w)
    order, near = _neighbor_table(table, k)
    terms = table.term_indices[order[row]]
    return Neighborhood(center=w, members=[(int(t), float(d)) for t, d in zip(terms, near[row])])


def neighborhood_similarity(nbhd: Neighborhood, table: EmbeddingTable) -> list[tuple[int, float]]:
    """Similarity of the center to each member, normalized by neighborhood spread.

    Each distance from the center is divided by the maximum distance over all
    unordered member pairs, then flipped: s = 1 - d / max. With the center a
    member of its own neighborhood this lands every value in [0, 1], the
    center itself at exactly 1. If all members coincide the similarity is 1
    everywhere.
    """
    if len(nbhd.members) < 2:
        raise ContractError("neighborhood similarity needs at least 2 members")
    members = np.array([[table.row(t) for t, _ in nbhd.members]])
    center_dists = np.array([[d for _, d in nbhd.members]])
    sims = _neighborhood_similarities(table, members, center_dists)[0]
    return [(t, float(s)) for (t, _), s in zip(nbhd.members, sims)]


def _term_matrix(table: EmbeddingTable, members: np.ndarray, values: np.ndarray) -> CsrArrays:
    """m x m CSR: row of each covered term holds `values` at its members' columns.

    Rows of uncovered terms carry a bare unit diagonal; zero values are
    dropped. Member rows ascend with vocabulary index, so sorting a row's
    members sorts its columns; blocks of `_BLOCK_VALUES` cells are sorted
    and written in place.
    """
    m = table.vocab_size
    terms = table.term_indices
    # A mask, not np.setdiff1d: that goes through np.unique, which imports
    # numpy.ma, and nothing else in a train needs it.
    covered = np.zeros(m, dtype=bool)
    covered[terms] = True
    missing = np.flatnonzero(~covered)
    lengths = np.ones(m, dtype=np.int64)
    lengths[terms] = np.count_nonzero(values, axis=1)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=index_dtype(m))
    data = np.empty(indptr[-1])
    indices[indptr[missing]] = missing
    data[indptr[missing]] = 1.0
    step = max(1, _BLOCK_VALUES // max(members.shape[1], 1))
    for i in range(0, terms.size, step):
        order = np.argsort(members[i : i + step], axis=1)
        cols = terms[np.take_along_axis(members[i : i + step], order, axis=1)]
        vals = np.take_along_axis(values[i : i + step], order, axis=1)
        keep = vals != 0
        pos, _ = row_positions(indptr, terms[i : i + step])
        indices[pos] = cols[keep]
        data[pos] = vals[keep]
    return CsrArrays(indptr=indptr, indices=indices, data=data, shape=(m, m))


def build_similarity_matrix(table: EmbeddingTable, k_s: int, alpha: float) -> TermSimilarityMatrix:
    """Sparse term-similarity matrix over k_s-neighborhoods, thresholded at alpha.

    Hyperbolic tables use the neighborhood-normalized ball similarity;
    Euclidean tables use cosine similarity clamped at 0. Entries below alpha
    are dropped, the diagonal is 1 for every term, and rows of terms without
    embeddings carry only that diagonal.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
    if k_s < 1:
        raise ConfigurationError("k_s must be >= 1")
    members, near = _neighbor_table(table, k_s)
    if table.space == HYPERBOLIC:
        sims = _neighborhood_similarities(table, members, near)
    else:
        sims = 1.0 - near
        sims[~(sims > 0.0)] = 0.0
    sims[:, :1] = 1.0  # the diagonal survives every threshold
    sims[~(sims >= alpha)] = 0.0
    return TermSimilarityMatrix(entries=_term_matrix(table, members, sims))


def build_hierarchy_matrix(table: EmbeddingTable, k_h: int) -> TermHierarchyMatrix:
    """Binary k-NN adjacency over the vocabulary, unit diagonal everywhere."""
    if k_h < 1:
        raise ConfigurationError("k_h must be >= 1")
    members, _ = _neighbor_table(table, k_h)
    return TermHierarchyMatrix(entries=_term_matrix(table, members, np.ones(members.shape)))
