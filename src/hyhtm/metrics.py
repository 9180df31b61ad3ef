"""Evaluation of a topic tree against its corpus.

Co-occurrence probabilities are estimated from document-level presence on
the modeled corpus itself. Topic coherence averages pairwise PMI over a
topic's top terms; hierarchical coherence averages PMI over the full
parent-term x child-term grid (self-pairs included). Specialization is one
minus the cosine between a topic's term weights and the corpus-wide term
distribution, and affinity compares parent topics against child versus
non-child topics one level down.

`evaluate` scores a whole tree in one pass. It gathers every term grid the
report reads, the top-10 x top-10 grid of each topic and of each edge (the
top-5 scores read sub-blocks of them), counts the joint documents of each
distinct unordered term pair once, in blocks of at most `_PAIR_BLOCK_WORDS`
presence words, and takes each distinct pair's PMI once. `pmi`, `coherence`
and `hierarchical_coherence` go through the same grid helper, so PMI has
one definition.

Every reported value is reproducible to the bit, and these rules keep it so:

- Joint counts are exact integers: `np.bitwise_count` of ANDed 64-bit
  presence words, summed per row.
- The PMI ratio is built elementwise with the scalar formula's IEEE
  operations in the scalar formula's order, and its logarithm is
  `math.log` of each value. numpy's vectorised log is another
  implementation and differs from libm's in the last bit for some inputs.
- Each mean adds its terms one after another in grid order, coherence with
  `+=` and hierarchical coherence with builtin `sum` (which compensates
  float additions from Python 3.12 on), over Python floats. `ndarray.sum`
  adds pairwise and rounds differently.
- Affinity takes each node's norm once and one 1-D dot product per
  parent/level-3 pair. Matrix-vector and matrix-matrix products round
  differently from the 1-D dot.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import Corpus, token_arrays
from .errors import ContractError
from .settings import TopicTree

log = logging.getLogger(__name__)

_JOINT_EPS = 1e-12
_TOP_NS = (5, 10)
# 64-bit presence words per operand in one block of the joint-count pass
# (1 MB each); a block holds at least one pair.
_PAIR_BLOCK_WORDS = 1 << 17


@dataclass
class CooccurrenceStats:
    """Document-presence counts for a set of terms of interest.

    Each term of interest has one row of 64-bit words over the documents,
    bit d of word d // 64 set when document d holds the term; the joint
    count of two terms is the popcount of their ANDed rows, so every count
    is an exact integer. `_term_counts` holds the occurrences of every
    vocabulary term, which `evaluate` reads as the corpus vector.
    """

    doc_count: int
    term_order: list[int]
    _local: dict[int, int] = field(repr=False)
    _doc_freq: np.ndarray = field(repr=False)
    _presence: np.ndarray = field(repr=False)
    _term_counts: np.ndarray = field(repr=False)

    def has(self, term: int) -> bool:
        return term in self._local

    def doc_freq(self, term: int) -> int:
        return int(self._doc_freq[self._local_indices([term])[0]])

    def joint_doc_freq(self, wi: int, wj: int) -> int:
        # Presence counts are symmetric; (w, w) degenerates to doc_freq(w).
        return self.joint_doc_freqs([wi], [wj])[0][0]

    def joint_doc_freqs(self, rows, cols) -> list[list[int]]:
        """Joint counts of every (rows[i], cols[j]) pair, as nested lists."""
        li, lj = self._local_indices(rows), self._local_indices(cols)
        counts = self._pair_counts(np.repeat(li, len(lj)), np.tile(lj, len(li)))
        return counts.reshape(len(li), len(lj)).tolist()

    def _local_indices(self, terms) -> np.ndarray:
        try:
            return np.array([self._local[t] for t in terms], dtype=np.int64)
        except KeyError as exc:
            raise ContractError(f"term {exc.args[0]} is not in the statistics") from None

    def _pair_counts(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Joint document counts of the local term pairs (left[k], right[k]),
        in blocks of at most `_PAIR_BLOCK_WORDS` words per operand."""
        block = max(1, _PAIR_BLOCK_WORDS // max(1, self._presence.shape[1]))
        counts = np.empty(len(left), dtype=np.int64)
        for start in range(0, len(left), block):
            stop = start + block
            both = self._presence[left[start:stop]] & self._presence[right[start:stop]]
            counts[start:stop] = np.bitwise_count(both).sum(axis=1, dtype=np.int64)
        return counts


def build_stats(corpus: Corpus, terms_of_interest) -> CooccurrenceStats:
    """Per-term and pairwise document-presence counts over the given terms."""
    m = len(corpus.vocabulary)
    order = sorted(set(int(t) for t in terms_of_interest))
    for t in order:
        if not 0 <= t < m:
            raise ContractError(f"term index {t} outside vocabulary of size {m}")
    local = {t: i for i, t in enumerate(order)}
    n = corpus.n_docs
    to_local = np.full(m, -1, dtype=np.int64)
    to_local[order] = np.arange(len(order))
    docs, terms = token_arrays(corpus)
    term_counts = np.bincount(terms, minlength=m)
    rows = to_local[terms]
    kept = rows >= 0
    rows, docs = rows[kept], docs[kept]
    presence = np.zeros((len(order), (n + 63) // 64), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (docs & 63).astype(np.uint64))
    np.bitwise_or.at(presence, (rows, docs >> 6), bits)
    return CooccurrenceStats(
        doc_count=n, term_order=order, _local=local,
        _doc_freq=np.bitwise_count(presence).sum(axis=1, dtype=np.int64),
        _presence=presence, _term_counts=term_counts,
    )


def _pmi_values(stats: CooccurrenceStats, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """PMI of the local term pairs (left[k], right[k]); 0 for a pair with a
    zero marginal. The ratio repeats the scalar formula
    ln((joint + eps) / n * n * n / (df_i * df_j)) operation for operation."""
    joint = stats._pair_counts(left, right)
    marginals = stats._doc_freq[left] * stats._doc_freq[right]
    scored = np.flatnonzero(marginals)
    if len(scored) < len(left):
        log.debug("%d term pairs have a zero marginal; their PMI is set to 0",
                  len(left) - len(scored))
    n = stats.doc_count
    ratio = (joint[scored] + _JOINT_EPS) / n * n * n / marginals[scored]
    values = np.zeros(len(left))
    values[scored] = [math.log(r) for r in ratio.tolist()]
    return values


def _pmi_grids(stats: CooccurrenceStats, grids) -> list:
    """PMI of every (rows[i], cols[j]) pair of each (rows, cols) term-list
    grid, as one nested list of floats per grid. Cells past the end of a
    grid's own lists hold 0.0. Each distinct unordered term pair is counted
    and scored once, whatever the number of grids it appears in."""
    width = max((len(t) for grid in grids for t in grid), default=0)
    rows = np.full((len(grids), width), -1, dtype=np.int64)
    cols = np.full((len(grids), width), -1, dtype=np.int64)
    for g, (row_terms, col_terms) in enumerate(grids):
        rows[g, : len(row_terms)] = stats._local_indices(row_terms)
        cols[g, : len(col_terms)] = stats._local_indices(col_terms)
    a, b = rows[:, :, None], cols[:, None, :]
    used = (a >= 0) & (b >= 0)
    t = len(stats.term_order)
    keys = (np.minimum(a, b) * t + np.maximum(a, b))[used]
    pairs, inverse = np.unique(keys, return_inverse=True)
    values = np.zeros(used.shape)
    values[used] = _pmi_values(stats, pairs // t, pairs % t)[inverse.ravel()]
    return values.tolist()


def _upper_mean(grid, k: int) -> float:
    """Mean of the strict upper triangle of a grid's first k x k cells,
    added row by row."""
    total = 0.0
    for i in range(k):
        row = grid[i]
        for j in range(i + 1, k):
            total += row[j]
    return total / (k * (k - 1) // 2)


def _block_mean(grid, rows: int, cols: int) -> float:
    """Mean of a grid's first rows x cols cells, added row by row."""
    return sum(chain.from_iterable(row[:cols] for row in grid[:rows])) / (rows * cols)


def pmi(stats: CooccurrenceStats, wi: int, wj: int) -> float:
    """ln(P(wi, wj) / (P(wi) P(wj))) with joint counts smoothed by 1e-12.

    Zero-marginal terms make the ratio meaningless; such pairs score 0 and
    are flagged in the log.
    """
    if not (stats.has(wi) and stats.has(wj)):
        raise ContractError("both terms must be present in the statistics")
    return _pmi_grids(stats, [([wi], [wj])])[0][0][0]


def coherence(topic_terms, stats: CooccurrenceStats, n: int) -> float | None:
    """Mean PMI over all unordered pairs of the top-n terms.

    Returns None (absent) when fewer than two usable terms exist.
    """
    if n < 2:
        raise ContractError("coherence needs n >= 2")
    terms = list(topic_terms)[:n]
    if len(terms) < 2:
        return None
    return _upper_mean(_pmi_grids(stats, [(terms, terms)])[0], len(terms))


def hierarchical_coherence(parent_terms, child_terms, stats: CooccurrenceStats, n: int) -> float | None:
    """Mean PMI over the full top-n parent x top-n child grid, i = j included."""
    if n < 1:
        raise ContractError("hierarchical coherence needs n >= 1")
    parents = list(parent_terms)[:n]
    children = list(child_terms)[:n]
    if not parents or not children:
        return None
    return _block_mean(_pmi_grids(stats, [(parents, children)])[0], len(parents), len(children))


def topic_specialization(term_weights: np.ndarray, corpus_vector: np.ndarray) -> float | None:
    """One minus the cosine similarity to the corpus term distribution.

    Both vectors must be nonnegative. A zero topic vector has no direction,
    so its specialization is reported absent.
    """
    cv = np.asarray(corpus_vector, dtype=float).ravel()
    if cv.size and cv.min() < 0:
        raise ContractError("specialization expects nonnegative vectors")
    return _specialization(term_weights, cv, float(cv @ cv))


def _specialization(term_weights, cv: np.ndarray, sq_c: float) -> float | None:
    """`topic_specialization` against a nonnegative 1-D float corpus vector
    `cv` whose squared norm is `sq_c`."""
    tw = np.asarray(term_weights, dtype=float).ravel()
    if tw.shape != cv.shape:
        raise ContractError(
            f"vector lengths differ: {tw.shape[0]} vs {cv.shape[0]}"
        )
    if tw.min() < 0:
        raise ContractError("specialization expects nonnegative vectors")
    sq_t = float(tw @ tw)
    if sq_t == 0.0 or sq_c == 0.0:
        return None
    # sqrt(dot^2 / (|u|^2 |v|^2)) equals the cosine for nonnegative vectors
    # and lands exactly on 1 (or 0) for proportional (or disjoint) inputs.
    dot = float(tw @ cv)
    value = 1.0 - math.sqrt((dot * dot) / (sq_t * sq_c))
    return min(max(value, 0.0), 1.0)


def hierarchical_affinity(tree: TopicTree) -> tuple[float | None, float | None]:
    """Mean parent-child versus parent-non-child cosine similarity.

    Parents are the level-2 topics and the comparison set the level-3
    topics: child affinity averages each parent against its own children,
    non-child affinity against every level-3 topic outside its subtree.
    Either value is absent when its pair set is empty or term weights are
    unavailable. A pair with a zero-norm vector has cosine 0.
    """
    parents = [n for n in tree.nodes_at_level(2) if n.term_weights is not None]
    level3 = [n for n in tree.nodes_at_level(3) if n.term_weights is not None]
    if not parents or not level3:
        return None, None
    others = [(n.node_id, n.term_weights, float(np.linalg.norm(n.term_weights))) for n in level3]
    child_sims, non_child_sims = [], []
    for parent in parents:
        u = parent.term_weights
        nu = float(np.linalg.norm(u))
        child_ids = {c.node_id for c in parent.children}
        for node_id, v, nv in others:
            sim = 0.0 if nu == 0.0 or nv == 0.0 else float(u @ v) / (nu * nv)
            (child_sims if node_id in child_ids else non_child_sims).append(sim)
    child = sum(child_sims) / len(child_sims) if child_sims else None
    non_child = sum(non_child_sims) / len(non_child_sims) if non_child_sims else None
    return child, non_child


@dataclass
class EvalReport:
    """Per-topic, per-edge, and per-level metric tables plus summary scalars."""

    topics: list[dict]
    edges: list[dict]
    levels: list[dict]
    affinity: dict
    summary: dict

    def to_dict(self) -> dict:
        return {
            "summary": self.summary,
            "affinity": self.affinity,
            "levels": self.levels,
            "topics": self.topics,
            "edges": self.edges,
        }

    def write_csv(self, path):
        columns = [
            "section", "id", "level", "parent", "child", "n_docs", "n_topics",
            "coherence_top5", "coherence_top10", "coherence", "specialization",
            "hcoherence_top5", "hcoherence_top10", "hcoherence",
            "child_affinity", "non_child_affinity",
        ]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns, restval="")
            writer.writeheader()
            for section, rows in (("topic", self.topics), ("edge", self.edges),
                                  ("level", self.levels)):
                for row in rows:
                    writer.writerow({"section": section, **{k: _cell(v) for k, v in row.items()}})
            writer.writerow(
                {
                    "section": "affinity",
                    "child_affinity": _cell(self.affinity.get("child")),
                    "non_child_affinity": _cell(self.affinity.get("non_child")),
                }
            )


def _cell(value):
    return "" if value is None else value


def _mean_or_none(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def evaluate(tree: TopicTree, corpus: Corpus) -> EvalReport:
    """Assemble every metric for a tree over its corpus, in one pass over
    its term pairs (see the module docstring). Deterministic."""
    m = len(corpus.vocabulary)
    recorded = tree.config.get("vocab_size")
    if recorded is not None and int(recorded) != m:
        raise ContractError(
            f"tree was built over a vocabulary of {recorded} terms, corpus has {m}"
        )
    nodes = list(tree.nodes())
    for node in nodes:
        if node.term_weights is not None and node.term_weights.shape[0] != m:
            raise ContractError(
                f"node {node.node_id} has {node.term_weights.shape[0]} term weights, "
                f"vocabulary has {m}"
            )
        for j, _ in node.top_terms:
            if not 0 <= j < m:
                raise ContractError(f"node {node.node_id} references term index {j}")

    top = max(_TOP_NS)
    terms = [[j for j, _ in node.top_terms[:top]] for node in nodes]
    stats = build_stats(corpus, sorted({j for node_terms in terms for j in node_terms}))
    # Term counts are nonnegative, so the corpus vector needs no check.
    corpus_vector = stats._term_counts.astype(float)
    norm = np.linalg.norm(corpus_vector)
    if norm > 0:
        corpus_vector = corpus_vector / norm
    sq_c = float(corpus_vector @ corpus_vector)
    position = {id(node): i for i, node in enumerate(nodes)}
    edge_index = [
        (i, position[id(child)]) for i, node in enumerate(nodes) for child in node.children
    ]
    grids = _pmi_grids(
        stats, [(t, t) for t in terms] + [(terms[p], terms[c]) for p, c in edge_index]
    )

    topics = []
    for node, node_terms, grid in zip(nodes, terms, grids):
        k = len(node_terms)
        c5, c10 = (_upper_mean(grid, min(k, n)) if k >= 2 else None for n in _TOP_NS)
        spec = (
            _specialization(node.term_weights, corpus_vector, sq_c)
            if node.term_weights is not None
            else None
        )
        topics.append(
            {
                "id": node.node_id,
                "level": node.level,
                "n_docs": len(node.doc_ids),
                "coherence_top5": c5,
                "coherence_top10": c10,
                "coherence": _mean_or_none([c5, c10]),
                "specialization": spec,
            }
        )

    edges = []
    for (p, c), grid in zip(edge_index, grids[len(nodes):]):
        kp, kc = len(terms[p]), len(terms[c])
        h5, h10 = (
            _block_mean(grid, min(kp, n), min(kc, n)) if kp and kc else None for n in _TOP_NS
        )
        edges.append(
            {
                "parent": nodes[p].node_id,
                "child": nodes[c].node_id,
                "hcoherence_top5": h5,
                "hcoherence_top10": h10,
                "hcoherence": _mean_or_none([h5, h10]),
            }
        )

    levels = []
    for level in sorted({n.level for n in nodes}):
        at_level = [t for t, n in zip(topics, nodes) if n.level == level]
        levels.append(
            {
                "level": level,
                "n_topics": len(at_level),
                "coherence": _mean_or_none([t["coherence"] for t in at_level]),
                "specialization": _mean_or_none([t["specialization"] for t in at_level]),
            }
        )

    child_aff, non_child_aff = hierarchical_affinity(tree)
    affinity = {"child": child_aff, "non_child": non_child_aff}
    summary = {
        "doc_count": corpus.n_docs,
        "n_topics": len(topics),
        "n_edges": len(edges),
        "mean_coherence": _mean_or_none([t["coherence"] for t in topics]),
        "mean_hierarchical_coherence": _mean_or_none([e["hcoherence"] for e in edges]),
        "mean_specialization_by_level": {
            str(row["level"]): row["specialization"] for row in levels
        },
        "child_affinity": child_aff,
        "non_child_affinity": non_child_aff,
    }
    return EvalReport(topics=topics, edges=edges, levels=levels, affinity=affinity, summary=summary)
