"""Evaluation of a topic tree against its corpus.

Co-occurrence probabilities are estimated from document-level presence on
the modeled corpus itself. Topic coherence averages pairwise PMI over a
topic's top terms; hierarchical coherence averages PMI over the full
parent-term x child-term grid (self-pairs included). Specialization is one
minus the cosine between a topic's term weights and the corpus-wide term
distribution, and affinity compares parent topics against child versus
non-child topics one level down.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import Corpus
from .errors import ContractError
from .hierarchy import TopicTree

log = logging.getLogger(__name__)

_JOINT_EPS = 1e-12
_TOP_NS = (5, 10)
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


@dataclass
class CooccurrenceStats:
    """Document-presence counts for a set of terms of interest.

    Each term of interest has one packed bit row over the documents, in the
    bit layout of np.packbits; the joint count of two terms is the popcount
    of their ANDed rows, so every count is an exact integer.
    """

    doc_count: int
    term_order: list[int]
    _local: dict[int, int] = field(repr=False)
    _doc_freq: np.ndarray = field(repr=False)
    _presence: np.ndarray = field(repr=False)

    def has(self, term: int) -> bool:
        return term in self._local

    def doc_freq(self, term: int) -> int:
        return int(self._doc_freq[self._local[term]])

    def joint_doc_freq(self, wi: int, wj: int) -> int:
        # Presence counts are symmetric; (w, w) degenerates to doc_freq(w).
        return self.joint_doc_freqs([wi], [wj])[0][0]

    def joint_doc_freqs(self, rows, cols) -> list[list[int]]:
        """Joint counts of every (rows[i], cols[j]) pair, as nested lists."""
        li = self._presence[self._local_indices(rows)]
        lj = self._presence[self._local_indices(cols)]
        both = li[:, None, :] & lj[None, :, :]
        return _POPCOUNT[both].sum(axis=2, dtype=np.int64).tolist()

    def _local_indices(self, terms) -> np.ndarray:
        try:
            return np.array([self._local[t] for t in terms], dtype=np.int64)
        except KeyError as exc:
            raise ContractError(f"term {exc.args[0]} is not in the statistics") from None


def _token_arrays(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Every token occurrence as two parallel int64 arrays: its document
    row and its term index."""
    lengths = np.fromiter((len(d.tokens) for d in corpus.documents), dtype=np.int64,
                          count=corpus.n_docs)
    terms = np.fromiter(chain.from_iterable(d.tokens for d in corpus.documents),
                        dtype=np.int64, count=int(lengths.sum()))
    return np.repeat(np.arange(corpus.n_docs, dtype=np.int64), lengths), terms


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
    docs, terms = _token_arrays(corpus)
    rows = to_local[terms]
    kept = rows >= 0
    rows, docs = rows[kept], docs[kept]
    presence = np.zeros((len(order), (n + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(presence, (rows, docs >> 3), (0x80 >> (docs & 7)).astype(np.uint8))
    return CooccurrenceStats(
        doc_count=n, term_order=order, _local=local,
        _doc_freq=_POPCOUNT[presence].sum(axis=1, dtype=np.int64), _presence=presence,
    )


def _pmi(stats: CooccurrenceStats, wi: int, wj: int, joint: int) -> float:
    df_i, df_j = stats.doc_freq(wi), stats.doc_freq(wj)
    if df_i == 0 or df_j == 0:
        log.debug("pair (%d, %d) has a zero marginal; PMI set to 0", wi, wj)
        return 0.0
    n = stats.doc_count
    p_joint = (joint + _JOINT_EPS) / n
    return math.log(p_joint * n * n / (df_i * df_j))


def pmi(stats: CooccurrenceStats, wi: int, wj: int) -> float:
    """ln(P(wi, wj) / (P(wi) P(wj))) with joint counts smoothed by 1e-12.

    Zero-marginal terms make the ratio meaningless; such pairs score 0 and
    are flagged in the log.
    """
    if not (stats.has(wi) and stats.has(wj)):
        raise ContractError("both terms must be present in the statistics")
    return _pmi(stats, wi, wj, stats.joint_doc_freq(wi, wj))


def coherence(topic_terms, stats: CooccurrenceStats, n: int) -> float | None:
    """Mean PMI over all unordered pairs of the top-n terms.

    Returns None (absent) when fewer than two usable terms exist.
    """
    if n < 2:
        raise ContractError("coherence needs n >= 2")
    terms = list(topic_terms)[:n]
    if len(terms) < 2:
        return None
    joint = stats.joint_doc_freqs(terms, terms)
    total = 0.0
    count = 0
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            total += _pmi(stats, terms[i], terms[j], joint[i][j])
            count += 1
    return total / count


def hierarchical_coherence(parent_terms, child_terms, stats: CooccurrenceStats, n: int) -> float | None:
    """Mean PMI over the full top-n parent x top-n child grid, i = j included."""
    if n < 1:
        raise ContractError("hierarchical coherence needs n >= 1")
    parents = list(parent_terms)[:n]
    children = list(child_terms)[:n]
    if not parents or not children:
        return None
    joint = stats.joint_doc_freqs(parents, children)
    total = sum(
        _pmi(stats, p, c, joint[i][j])
        for i, p in enumerate(parents)
        for j, c in enumerate(children)
    )
    return total / (len(parents) * len(children))


def topic_specialization(term_weights: np.ndarray, corpus_vector: np.ndarray) -> float | None:
    """One minus the cosine similarity to the corpus term distribution.

    Both vectors must be nonnegative. A zero topic vector has no direction,
    so its specialization is reported absent.
    """
    tw = np.asarray(term_weights, dtype=float).ravel()
    cv = np.asarray(corpus_vector, dtype=float).ravel()
    if tw.shape != cv.shape:
        raise ContractError(
            f"vector lengths differ: {tw.shape[0]} vs {cv.shape[0]}"
        )
    if tw.min() < 0 or cv.min() < 0:
        raise ContractError("specialization expects nonnegative vectors")
    sq_t = float(tw @ tw)
    sq_c = float(cv @ cv)
    if sq_t == 0.0 or sq_c == 0.0:
        return None
    # sqrt(dot^2 / (|u|^2 |v|^2)) equals the cosine for nonnegative vectors
    # and lands exactly on 1 (or 0) for proportional (or disjoint) inputs.
    dot = float(tw @ cv)
    value = 1.0 - math.sqrt((dot * dot) / (sq_t * sq_c))
    return min(max(value, 0.0), 1.0)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def hierarchical_affinity(tree: TopicTree) -> tuple[float | None, float | None]:
    """Mean parent-child versus parent-non-child cosine similarity.

    Parents are the level-2 topics and the comparison set the level-3
    topics: child affinity averages each parent against its own children,
    non-child affinity against every level-3 topic outside its subtree.
    Either value is absent when its pair set is empty or term weights are
    unavailable.
    """
    parents = [n for n in tree.nodes_at_level(2) if n.term_weights is not None]
    level3 = [n for n in tree.nodes_at_level(3) if n.term_weights is not None]
    if not parents or not level3:
        return None, None
    child_sims, non_child_sims = [], []
    for parent in parents:
        child_ids = {c.node_id for c in parent.children}
        for node in level3:
            sim = _cosine(parent.term_weights, node.term_weights)
            if node.node_id in child_ids:
                child_sims.append(sim)
            else:
                non_child_sims.append(sim)
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
            for row in self.topics:
                writer.writerow({"section": "topic", **{k: _cell(v) for k, v in row.items()}})
            for row in self.edges:
                writer.writerow({"section": "edge", **{k: _cell(v) for k, v in row.items()}})
            for row in self.levels:
                writer.writerow({"section": "level", **{k: _cell(v) for k, v in row.items()}})
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
    """Assemble every metric for a tree over its corpus. Deterministic."""
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

    corpus_vector = np.bincount(_token_arrays(corpus)[1], minlength=m).astype(float)
    norm = np.linalg.norm(corpus_vector)
    if norm > 0:
        corpus_vector = corpus_vector / norm

    interest = sorted({j for node in nodes for j, _ in node.top_terms[: max(_TOP_NS)]})
    stats = build_stats(corpus, interest)

    topics = []
    for node in nodes:
        terms = [j for j, _ in node.top_terms]
        c5 = coherence(terms, stats, 5) if len(terms) >= 2 else None
        c10 = coherence(terms, stats, 10) if len(terms) >= 2 else None
        spec = (
            topic_specialization(node.term_weights, corpus_vector)
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
    for node in nodes:
        parent_terms = [j for j, _ in node.top_terms]
        for child in node.children:
            child_terms = [j for j, _ in child.top_terms]
            h5 = hierarchical_coherence(parent_terms, child_terms, stats, 5)
            h10 = hierarchical_coherence(parent_terms, child_terms, stats, 10)
            edges.append(
                {
                    "parent": node.node_id,
                    "child": child.node_id,
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
