"""Recursive construction of the topic tree.

Each node factorizes its document representation into N topics, assigns
every document to its strongest topic, and derives each child's
representation by reweighting the root representation's rows with the
topic's hierarchy-expanded term vector.

The root representation A0 stays sparse. Each node takes its rows of A0,
scales them by the node's reweight vector and factorizes them as a dense
(rows, m) array when at least DENSE_MIN_DENSITY of its cells are stored,
else as a sparse matrix. The node matrix is dropped before the node's
children are built, so at most A0 and one node matrix are alive at once;
an instrumented gauge follows every node matrix until it is freed and
records the peak, which the max_depth + 1 bound is checked against. A0
and the hierarchy matrix are `sparse_io.CsrArrays`, so only a sparse node
needs scipy. A node's documents are named by the ids of A0's rows, which
the caller takes from the corpus. An A0 of fewer than min_docs nonzero
rows raises DegenerateCorpusError: no tree is ever empty. Provenance holds
one record per factorization, in the order made (depth first, root first):
the split topic's id (`""` at the root), its rows and layout, the NMF
iterations, convergence and final objective, and the unassigned rows.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import asdict

import numpy as np

from .errors import ConfigurationError, ContractError, DegenerateCorpusError, ShapeError
from .nmf import factorize
from .settings import TopicNode, TopicTree, TrainConfig
from .sparse_io import CsrArrays, dense_rows

log = logging.getLogger(__name__)

# A node matrix with at least this share of its cells stored is factorized
# dense. Summed over a tree's nodes at one BLAS thread, dense NMF took
# 0.51-0.59 of the sparse time on planted trees whose nodes store 25-42%
# of their cells (m = 128 to 1000) and 1.6-6.5 times the sparse time on
# trees whose nodes store 2-16% (m = 4440). Below this share a dense node
# would also take more than three times the memory of a sparse one.
DENSE_MIN_DENSITY = 0.2


class LiveMatrixGauge:
    """Counts representation matrices currently alive and records the peak.

    A tracked matrix counts from `track` until the matrix itself is freed
    (a weakref finalizer), so a node matrix kept past its factorization
    shows in the peak.
    """

    def __init__(self):
        self.count = 0
        self.peak = 0

    def track(self, matrix):
        self.count += 1
        self.peak = max(self.peak, self.count)
        weakref.finalize(matrix, self._release)
        return matrix

    def _release(self):
        self.count -= 1


def assign_documents(w: np.ndarray) -> list[list[int]]:
    """Partition row indices by each row's strongest topic.

    Ties go to the lowest topic index. Rows that are entirely zero have no
    association to any topic and are excluded from every cell (and logged).
    """
    w = np.asarray(w)
    if w.size and w.min() < 0:
        raise ContractError("document-topic matrix must be nonnegative")
    nonzero = w.any(axis=1)
    best = np.argmax(w, axis=1)
    parts = [np.flatnonzero(nonzero & (best == t)).tolist() for t in range(w.shape[1])]
    n_dropped = int(w.shape[0] - nonzero.sum())
    if n_dropped:
        log.info("%d documents had all-zero topic rows and were left unassigned", n_dropped)
    return parts


def parent_child_reweight(h: np.ndarray, i: int, mh: CsrArrays) -> np.ndarray:
    """A topic's term weights expanded through the hierarchy adjacency.

    Entry j sums H[i][w] over every term w whose hierarchy neighborhood
    contains j, boosting terms hierarchically related to the topic's own.
    The sum runs over the stored entries in CSR order, which makes it
    bitwise equal to the sparse product `mh.T @ h[i]`.
    """
    h = np.atleast_2d(h)
    if not 0 <= i < h.shape[0]:
        raise ShapeError(f"topic index {i} out of range for {h.shape[0]} topics")
    m = h.shape[1]
    if mh.shape != (m, m):
        raise ShapeError(f"hierarchy matrix is {mh.shape}, expected {(m, m)}")
    rows = np.repeat(np.arange(m), np.diff(mh.indptr))
    return np.bincount(mh.indices, weights=mh.data * h[i][rows], minlength=m)


def top_words(h: np.ndarray, i: int, n: int) -> list[tuple[int, float]]:
    """The n heaviest terms of topic i, descending, index-ascending on ties."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    h = np.atleast_2d(h)
    if not 0 <= i < h.shape[0]:
        raise ShapeError(f"topic index {i} out of range for {h.shape[0]} topics")
    row = h[i]
    order = np.lexsort((np.arange(row.shape[0]), -row))[: min(n, row.shape[0])]
    return [(int(j), float(row[j])) for j in order]


def check_root_rows(n_rows: int, min_docs: int):
    """Raise DegenerateCorpusError when a root of `n_rows` nonzero rows
    holds fewer than `min_docs`: its tree would be empty."""
    if n_rows < min_docs:
        raise DegenerateCorpusError(
            f"root has {n_rows} nonzero rows, fewer than min_docs={min_docs}"
        )


def build_hierarchy(
    a0: CsrArrays, doc_ids: list[str], mh: CsrArrays, config: TrainConfig
) -> TopicTree:
    """Depth-first recursive factorization into a topic tree.

    Level 1 factorizes the root representation directly (empty documents
    excluded). For each topic at any level: documents are assigned by
    strongest association, the matching rows are taken from the root
    representation, scaled by the topic's hierarchy-expanded term vector,
    and recursed on. Recursion stops beyond max_depth or below min_docs
    documents; topics whose reweight vector vanishes become leaves. A root
    of fewer than min_docs nonzero rows raises DegenerateCorpusError.

    Every node matrix, the root's included, is factorized as a dense
    array gathered from A0's CSR arrays when at least DENSE_MIN_DENSITY of
    its cells are stored, else as a scipy CSR matrix. `a0` and `mh` are
    the CSR arrays that the builders and the cache return; `doc_ids[r]`
    names row r of A0, and a count of ids other than A0's row count raises
    ShapeError.
    """
    config.validate()
    n, m = a0.shape
    if len(doc_ids) != n:
        raise ShapeError(f"{len(doc_ids)} document ids for the {n} rows of A0")
    if mh.shape != (m, m):
        raise ShapeError(f"hierarchy matrix is {mh.shape}, expected {(m, m)}")
    root_rows = np.flatnonzero(np.diff(a0.indptr) > 0)
    check_root_rows(root_rows.size, config.min_docs)
    gauge = LiveMatrixGauge()
    gauge.track(a0)  # the root representation itself
    sparse_a0 = None  # A0 as a scipy matrix, made for the first sparse node
    records = []  # one per factorization, in the order made

    def node_matrix(rows: np.ndarray, scale):
        """Rows `rows` of A0 with columns scaled by `scale`, dense or sparse
        by the share of stored cells."""
        nonlocal sparse_a0
        stored = a0.indptr[rows + 1] - a0.indptr[rows]
        if stored.sum() >= DENSE_MIN_DENSITY * rows.size * m:
            return dense_rows(a0, rows, scale)
        if sparse_a0 is None:
            sparse_a0 = a0.tocsr()
        matrix = sparse_a0[rows]
        return matrix if scale is None else matrix.multiply(scale[None, :]).tocsr()

    def expand(row_map: np.ndarray, scale, level: int, prefix: str) -> list[TopicNode]:
        matrix = gauge.track(node_matrix(row_map, scale))
        dense = isinstance(matrix, np.ndarray)
        pair = factorize(matrix, config.n_topics, config.nmf_max_iter, config.nmf_tol, config.seed)
        del matrix  # freed before the children take their own rows of A0
        parts = assign_documents(pair.W)
        records.append({"node": prefix[:-1], "rows": row_map.size, "dense": dense,
                        "n_iter": pair.n_iter, "converged": pair.converged,
                        "objective": pair.objective_history[-1],
                        "unassigned": row_map.size - sum(len(p) for p in parts)})
        nodes = []
        for i in range(config.n_topics):
            node_id = f"{prefix}{i}"
            rows = np.asarray(parts[i], dtype=np.int64)
            global_rows = row_map[rows]
            node = TopicNode(
                node_id=node_id,
                level=level,
                term_weights=pair.H[i].copy(),
                # zero-weight terms say nothing about the topic; keep them out
                top_terms=[(j, w) for j, w in top_words(pair.H, i, config.top_terms) if w > 0],
                doc_ids=[doc_ids[r] for r in global_rows],
            )
            if level + 1 <= config.max_depth and len(global_rows) >= config.min_docs:
                m_ti = parent_child_reweight(pair.H, i, mh)
                if m_ti.any():
                    node.children = expand(global_rows, m_ti, level + 1, node_id + ".")
                else:
                    log.debug("topic %s has an all-zero reweight vector; leaf", node_id)
            nodes.append(node)
        return nodes

    roots = expand(root_rows, None, 1, "")
    provenance = {"hyperparameters": asdict(config), "peak_live_matrices": gauge.peak,
                  "excluded_empty_rows": int(n - root_rows.size), "factorizations": records}
    return TopicTree(roots=roots, config=asdict(config), provenance=provenance)
