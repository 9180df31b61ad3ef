"""Acceptance gate: each test runs one criterion at its stated tolerance
and prints a PASS/FAIL line (run with -s to see them on success).

Full benchmark corpora are out of reach at desk scale, so the gate is
property-based plus scaled experiments on the planted-hierarchy fixture.
"""

import json
import math
import time

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import acosh as mp_acosh
from scipy import sparse

from hyhtm import (
    TrainConfig,
    build_document_representation,
    build_hierarchy,
    build_tf,
    coherence,
    compute_idf,
    evaluate,
    factorize,
    hierarchical_coherence,
    knn,
    neighborhood_similarity,
    poincare_distance,
    reconstruction_error,
    topic_specialization,
)
from hyhtm.cli import main
from hyhtm.hypspace import EmbeddingTable
from hyhtm.metrics import build_stats
from hyhtm.sparse_io import file_sha256

from conftest import (
    PLANTED_ALPHA,
    PLANTED_K,
    PLANTED_MAX_DEPTH,
    PLANTED_MIN_DOCS,
    PLANTED_N_TOPICS,
    PLANTED_SEEDS,
    csr_of,
    make_corpus,
)
from planted import purity


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def sample_ball_points(rng, count, dim, max_radius=0.95):
    points = rng.normal(size=(count, dim))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    points *= rng.uniform(0.0, max_radius, size=(count, 1))
    return points


def mp_distance(u, v):
    u = [mpf(float(x)) for x in u]
    v = [mpf(float(x)) for x in v]
    diff_sq = sum((a - b) ** 2 for a, b in zip(u, v))
    nu = sum(a * a for a in u)
    nv = sum(b * b for b in v)
    return mp_acosh(1 + 2 * diff_sq / ((1 - nu) * (1 - nv)))


def test_criterion_1_distance_oracle():
    t0 = time.perf_counter()
    mp.dps = 50
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        u, v = sample_ball_points(rng, 2, dim)
        got = poincare_distance(u, v)
        want = mp_distance(u, v)
        if want == 0:
            rel = abs(got)
        else:
            rel = abs((mpf(got) - want) / want)
        worst_rel = max(worst_rel, float(rel))

    worst_sym = 0.0
    pts = sample_ball_points(rng, 2000, 3)
    for i in range(0, 2000, 2):
        worst_sym = max(
            worst_sym,
            abs(poincare_distance(pts[i], pts[i + 1]) - poincare_distance(pts[i + 1], pts[i])),
        )

    triangle_ok = True
    pts = sample_ball_points(rng, 3000, 3)
    for i in range(0, 3000, 3):
        u, v, w = pts[i], pts[i + 1], pts[i + 2]
        if poincare_distance(u, w) > poincare_distance(u, v) + poincare_distance(v, w) + 1e-9:
            triangle_ok = False
            break
    elapsed = time.perf_counter() - t0
    report(
        1,
        "distance oracle",
        worst_rel < 1e-9 and worst_sym < 1e-12 and triangle_ok and elapsed < 5.0,
        f"rel={worst_rel:.2e} sym={worst_sym:.2e} triangle={triangle_ok} {elapsed:.2f}s",
    )


def test_criterion_2_identity_reduction():
    rng = np.random.default_rng(102)
    terms = [f"t{j:02d}" for j in range(40)]
    docs = []
    for _ in range(100):
        length = int(rng.integers(1, 30))
        docs.append([terms[j] for j in rng.integers(0, 40, size=length)])
    corpus = make_corpus(docs, terms=terms)
    tf = build_tf(corpus)
    eye = csr_of(sparse.identity(40))
    idf = compute_idf(tf, eye)
    rep = build_document_representation(tf, eye, idf)

    counts = tf.toarray().astype(float)
    df = (counts > 0).sum(axis=0)
    classic_idf = np.where(df > 0, np.log(100.0 / np.maximum(df, 1)), 0.0)
    classic = counts * classic_idf[None, :]
    worst = np.abs(rep.values.toarray() - classic).max()
    report(2, "identity similarity reduces to classic TF-IDF", worst < 1e-9, f"max|diff|={worst:.2e}")


def oracle_neighborhood_similarity(points, order):
    """Independent reference: explicit O(k^2) pairwise loop in scalar arithmetic."""

    def dist(i, j):
        dsq = np.float64(0.0)
        nu = np.float64(0.0)
        nv = np.float64(0.0)
        for k in range(points.shape[1]):
            dsq = dsq + (points[i, k] - points[j, k]) * (points[i, k] - points[j, k])
            nu = nu + points[i, k] * points[i, k]
            nv = nv + points[j, k] * points[j, k]
        arg = np.float64(1.0) + np.float64(2.0) * dsq / ((np.float64(1.0) - nu) * (np.float64(1.0) - nv))
        if arg < 1.0:
            arg = np.float64(1.0)
        return np.arccosh(arg)

    max_dist = np.float64(0.0)
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            d = dist(order[a], order[b])
            if d > max_dist:
                max_dist = d
    center = order[0]
    sims = []
    for member in order:
        if max_dist == 0.0:
            sims.append((member, 1.0))
        else:
            sims.append((member, float(np.float64(1.0) - dist(center, member) / max_dist)))
    return sims


def test_criterion_3_neighborhood_similarity_oracle():
    rng = np.random.default_rng(103)
    exact = True
    bounded = True
    for trial in range(50):
        dim = int(rng.integers(2, 5))
        points = sample_ball_points(rng, 10, dim, max_radius=0.9)
        table = EmbeddingTable(space="hyperbolic", vocab_size=10,
                               term_indices=np.arange(10, dtype=np.int64), matrix=points)
        center = int(rng.integers(0, 10))
        nbhd = knn(table, center, 10)
        got = neighborhood_similarity(nbhd, table)
        want = oracle_neighborhood_similarity(points, nbhd.member_indices())
        for (gi, gs), (wi, ws) in zip(got, want):
            if gi != wi or gs != ws:
                exact = False
            if not 0.0 <= gs <= 1.0:
                bounded = False
    report(3, "neighborhood similarity matches brute-force oracle", exact and bounded,
           f"exact={exact} in[0,1]={bounded}")


def test_criterion_4_nmf_monotonicity_and_rank1():
    rng = np.random.default_rng(104)
    worst_rise = -np.inf
    for trial in range(50):
        n = int(rng.integers(20, 201))
        m = int(rng.integers(30, 501))
        density = float(rng.uniform(0.01, 1.0))
        a = sparse.random(n, m, density=density, random_state=int(rng.integers(1 << 31)))
        a.data = np.abs(a.data)
        a = a.tocsr()
        if a.nnz == 0:
            continue
        pair = factorize(a, n_topics=4, max_iter=30, seed=trial)
        hist = pair.objective_history
        rises = [cur - prev for prev, cur in zip(hist, hist[1:])]
        worst_rise = max(worst_rise, max(rises))
    monotone = worst_rise <= 1e-10

    a = sparse.csr_matrix(np.outer([1.0, 2.0], [3.0, 0.0, 1.0]))
    rank1_ok = True
    rels = []
    for seed in (0, 1, 2):
        pair = factorize(a, n_topics=1, max_iter=500, tol=1e-12, seed=seed)
        rel = reconstruction_error(a, pair.W, pair.H) / math.sqrt(float((a.data**2).sum()))
        rels.append(rel)
        rank1_ok = rank1_ok and rel < 1e-4
    report(4, "multiplicative updates monotone, rank-1 recovered",
           monotone and rank1_ok,
           f"worst_rise={worst_rise:.2e} rank1_rel={max(rels):.2e}")


def test_criterion_5_metric_oracles(four_doc_corpus):
    vocab = four_doc_corpus.vocabulary.index
    a, b = vocab["a"], vocab["b"]
    stats = build_stats(four_doc_corpus, range(3))
    ln43 = math.log(4.0 / 3.0)
    coh = coherence([a, b], stats, 2)
    hcoh = hierarchical_coherence([a], [b], stats, 1)
    spec_proportional = topic_specialization(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
    spec_disjoint = topic_specialization(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ok = (
        abs(coh - ln43) <= 1e-12
        and abs(hcoh - ln43) <= 1e-12
        and spec_proportional == 0.0
        and spec_disjoint == 1.0
    )
    report(5, "metric oracles on the 4-document fixture", ok,
           f"coh-ln(4/3)={coh - ln43:.2e} hcoh-ln(4/3)={hcoh - ln43:.2e} "
           f"spec0={spec_proportional} spec1={spec_disjoint}")


@pytest.fixture(scope="module")
def planted_runs(planted, planted_corpus, planted_matrices):
    t0 = time.perf_counter()
    runs = {}
    for seed in PLANTED_SEEDS:
        cfg = TrainConfig(
            n_topics=PLANTED_N_TOPICS,
            max_depth=PLANTED_MAX_DEPTH,
            min_docs=PLANTED_MIN_DOCS,
            alpha=PLANTED_ALPHA,
            k_s=PLANTED_K,
            k_h=PLANTED_K,
            seed=seed,
        )
        a0, doc_ids = planted_matrices["a0"], planted_matrices["doc_ids"]
        tree_full = build_hierarchy(a0, doc_ids, planted_matrices["mh"], cfg)
        tree_identity = build_hierarchy(a0, doc_ids, planted_matrices["mh_identity"], cfg)
        report_full = evaluate(tree_full, planted_corpus)
        report_identity = evaluate(tree_identity, planted_corpus)
        runs[seed] = {
            "purity": purity(
                [node.doc_ids for node in tree_full.roots], planted.root_labels, 900
            ),
            "hc_full": report_full.summary["mean_hierarchical_coherence"],
            "hc_identity": report_identity.summary["mean_hierarchical_coherence"],
            "spec": report_full.summary["mean_specialization_by_level"],
            "peaks": (
                tree_full.provenance["peak_live_matrices"],
                tree_identity.provenance["peak_live_matrices"],
            ),
        }
    return runs, time.perf_counter() - t0


def test_criterion_6_planted_hierarchy_recovery(planted_runs):
    runs, elapsed = planted_runs
    purity_ok = all(runs[s]["purity"] >= 0.8 for s in PLANTED_SEEDS)
    gap_ok = all(runs[s]["hc_full"] >= runs[s]["hc_identity"] for s in PLANTED_SEEDS)
    detail = " ".join(
        f"seed{s}: purity={runs[s]['purity']:.3f} "
        f"hc={runs[s]['hc_full']:.4f}vs{runs[s]['hc_identity']:.4f}"
        for s in PLANTED_SEEDS
    )
    report(6, "planted hierarchy recovered, hierarchy matrix helps",
           purity_ok and gap_ok and elapsed < 300.0, f"{detail} {elapsed:.1f}s")


def test_criterion_7_specialization_trend(planted_runs):
    runs, _ = planted_runs
    increases = sum(
        1 for s in PLANTED_SEEDS if runs[s]["spec"]["2"] > runs[s]["spec"]["1"]
    )
    detail = " ".join(
        f"seed{s}: L1={runs[s]['spec']['1']:.3f} L2={runs[s]['spec']['2']:.3f}"
        for s in PLANTED_SEEDS
    )
    report(7, "specialization increases with depth", increases >= 2,
           f"{detail} ({increases}/3 seeds)")


def test_criterion_8_memory_discipline(planted_runs):
    runs, _ = planted_runs
    worst = max(max(runs[s]["peaks"]) for s in PLANTED_SEEDS)
    report(8, "live representations bounded by depth + 1",
           worst <= PLANTED_MAX_DEPTH + 1, f"peak={worst} bound={PLANTED_MAX_DEPTH + 1}")


def test_criterion_9_deterministic_tree(planted_inputs, tmp_path):
    corpus_jsonl, emb_path = planted_inputs
    pre_dir = tmp_path / "pre"
    assert main(
        [
            "preprocess", "--input", str(corpus_jsonl),
            "--output-dir", str(pre_dir), "--min-doc-freq", "5",
        ]
    ) == 0
    hashes = []
    for run in ("one", "two"):
        out = tmp_path / run
        code = main(
            [
                "train",
                "--corpus", str(pre_dir / "corpus.bin"),
                "--embeddings", str(emb_path),
                "--output-dir", str(out),
                "--alpha", str(PLANTED_ALPHA),
                "--k-s", str(PLANTED_K),
                "--k-h", str(PLANTED_K),
                "--n-topics", str(PLANTED_N_TOPICS),
                "--max-depth", str(PLANTED_MAX_DEPTH),
                "--min-docs", str(PLANTED_MIN_DOCS),
                "--seed", "0",
                "--no-cache",
            ]
        )
        assert code == 0
        hashes.append(file_sha256(out / "tree.json"))
    identical = hashes[0] == hashes[1] and (
        (tmp_path / "one" / "tree.json").read_bytes()
        == (tmp_path / "two" / "tree.json").read_bytes()
    )
    report(9, "rerun with fixed seed is byte-identical", identical, f"sha={hashes[0][:12]}")
