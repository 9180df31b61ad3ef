import math
import re

import numpy as np
import pytest
from scipy import sparse

from hyhtm import (
    EmbeddingTable,
    Vocabulary,
    build_hierarchy_matrix,
    build_similarity_matrix,
    euclidean_cosine,
    knn,
    load_embeddings,
    neighborhood_similarity,
    poincare_distance,
)
from hyhtm import hypspace, sparse_io
from hyhtm.errors import ConfigurationError, ContractError, EmbeddingParseError
from hyhtm.hypspace import _neighbor_table, poincare_distances
from hyhtm.sparse_io import (
    CsrArrays,
    MatrixCache,
    cache_key,
    read_csr,
    save_csr,
)

from conftest import table_from_points, write_embedding_file

# Frozen values from a 50-digit evaluation of the distance formula.
D_ORIGIN_HALF = 1.0986122886681096913952452369225257046474905578227  # = ln 3
D_CORNERS = 2.1881985718624319387470477567294868287236914630897


def ball_points(rng, count, dim, radius=0.85):
    points = rng.normal(size=(count, dim))
    norms = np.linalg.norm(points, axis=1, keepdims=True)
    scale = rng.uniform(0.01, radius, size=(count, 1))
    return points / norms * scale


class TestPoincareDistance:
    def test_zero_for_equal_points(self):
        assert poincare_distance((0.3, 0.4), (0.3, 0.4)) == 0.0

    def test_origin_to_half(self):
        assert poincare_distance((0.0, 0.0), (0.5, 0.0)) == pytest.approx(
            D_ORIGIN_HALF, abs=1e-12
        )

    def test_symmetric_corners(self):
        assert poincare_distance((0.6, 0.0), (0.0, 0.6)) == pytest.approx(
            D_CORNERS, abs=1e-12
        )

    def test_symmetry_random(self):
        rng = np.random.default_rng(0)
        pts = ball_points(rng, 60, 3)
        for i in range(0, 60, 2):
            d1 = poincare_distance(pts[i], pts[i + 1])
            d2 = poincare_distance(pts[i + 1], pts[i])
            assert abs(d1 - d2) < 1e-12

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(1)
        pts = ball_points(rng, 90, 4)
        for i in range(0, 90, 3):
            u, v, w = pts[i], pts[i + 1], pts[i + 2]
            assert poincare_distance(u, w) <= (
                poincare_distance(u, v) + poincare_distance(v, w) + 1e-9
            )

    def test_dominates_euclidean_distance(self):
        rng = np.random.default_rng(2)
        pts = ball_points(rng, 80, 3)
        for i in range(0, 80, 2):
            chord = float(np.linalg.norm(pts[i] - pts[i + 1]))
            assert poincare_distance(pts[i], pts[i + 1]) >= chord

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        pts = ball_points(rng, 40, 2)
        center = pts[0]
        vec = poincare_distances(center, pts)
        for i in range(40):
            assert vec[i] == poincare_distance(center, pts[i])


class TestEuclideanCosine:
    def test_self_similarity(self):
        assert euclidean_cosine((0.3, 0.7), (0.3, 0.7)) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert euclidean_cosine((1.0, 0.0), (0.0, 2.0)) == 0.0

    def test_hand_value(self):
        assert euclidean_cosine((1.0, 0.0), (1.0, 1.0)) == pytest.approx(
            1.0 / math.sqrt(2), abs=1e-12
        )

    def test_zero_vector_policy(self):
        assert euclidean_cosine((0.0, 0.0), (1.0, 1.0)) == 0.0


class TestLoadEmbeddings:
    def test_direct_parse(self, tmp_path):
        vocab = Vocabulary(terms=["cat", "dog"])
        path = tmp_path / "vec.txt"
        path.write_text("cat 0.1 0.2\n", encoding="utf-8")
        table = load_embeddings(path, vocab)
        assert table.dim == 2
        assert table.covered == {vocab.index["cat"]}
        assert np.allclose(table.vector(vocab.index["cat"]), [0.1, 0.2])

    def test_header_line_is_skipped(self, tmp_path):
        vocab = Vocabulary(terms=["cat"])
        path = tmp_path / "vec.txt"
        path.write_text("1 2\ncat 0.1 0.2\n", encoding="utf-8")
        table = load_embeddings(path, vocab)
        assert table.covered == {0}

    def test_projection_preserves_direction(self, tmp_path):
        vocab = Vocabulary(terms=["far"])
        path = tmp_path / "vec.txt"
        path.write_text("far 1.2 0.0\n", encoding="utf-8")
        table = load_embeddings(path, vocab)
        vec = table.vector(0)
        assert np.linalg.norm(vec) == pytest.approx(0.99999, abs=1e-12)
        assert vec[0] > 0 and vec[1] == 0.0

    def test_euclidean_mode_does_not_project(self, tmp_path):
        vocab = Vocabulary(terms=["far"])
        path = tmp_path / "vec.txt"
        path.write_text("far 1.2 0.0\n", encoding="utf-8")
        table = load_embeddings(path, vocab, "euclidean")
        assert np.linalg.norm(table.vector(0)) == pytest.approx(1.2)

    def test_malformed_line_reports_number(self, tmp_path):
        vocab = Vocabulary(terms=["cat", "dog"])
        path = tmp_path / "vec.txt"
        path.write_text("cat 0.1 0.2\ndog 0.1\n", encoding="utf-8")
        with pytest.raises(EmbeddingParseError, match="line 2"):
            load_embeddings(path, vocab)

    def test_bad_component_reports_number(self, tmp_path):
        vocab = Vocabulary(terms=["cat"])
        path = tmp_path / "vec.txt"
        path.write_text("cat 0.1 oops\n", encoding="utf-8")
        with pytest.raises(EmbeddingParseError, match="line 1"):
            load_embeddings(path, vocab)

    def test_non_finite_component_reports_number(self, tmp_path):
        vocab = Vocabulary(terms=["cat", "dog"])
        path = tmp_path / "vec.txt"
        path.write_text("cat 0.1 0.2\ndog 0.1 nan\n", encoding="utf-8")
        with pytest.raises(EmbeddingParseError, match="non-finite.*line 2"):
            load_embeddings(path, vocab)

    def test_low_coverage_warns_not_fails(self, tmp_path, caplog):
        vocab = Vocabulary(terms=[f"t{i:02d}" for i in range(20)])
        path = tmp_path / "vec.txt"
        path.write_text("t00 0.1 0.0\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            table = load_embeddings(path, vocab)
        assert table.coverage == pytest.approx(0.05)
        assert any("coverage" in r.message for r in caplog.records)

    def test_uncovered_terms_get_diagonal_only_rows(self, tmp_path):
        table, vocab = table_from_points(
            tmp_path, [(0.0, 0.0), (0.2, 0.0)], terms=["aa", "bb"]
        )
        # add an uncovered vocabulary term by rebuilding with a larger vocab
        vocab3 = Vocabulary(terms=["aa", "bb", "cc"])
        path = write_embedding_file(
            tmp_path / "partial.txt", [("aa", (0.0, 0.0)), ("bb", (0.2, 0.0))]
        )
        table = load_embeddings(path, vocab3)
        ms = build_similarity_matrix(table, k_s=3, alpha=0.0)
        mh = build_hierarchy_matrix(table, k_h=3)
        cc = vocab3.index["cc"]
        s, h = ms.entries.tocsr(), mh.entries.tocsr()
        assert s[cc].nnz == 1 and s[cc, cc] == 1.0
        assert h[cc].nnz == 1 and h[cc, cc] == 1.0


class TestKnn:
    def test_collinear_example(self, tmp_path):
        table, vocab = table_from_points(
            tmp_path, [(0.0, 0.0), (0.2, 0.0), (0.8, 0.0)], terms=["pa", "pb", "pc"]
        )
        nbhd = knn(table, vocab.index["pa"], 2)
        assert nbhd.member_indices() == [vocab.index["pa"], vocab.index["pb"]]
        assert nbhd.members[0][1] == 0.0

    def test_saturation(self, tmp_path):
        table, vocab = table_from_points(
            tmp_path, [(0.0, 0.0), (0.2, 0.0), (0.8, 0.0)], terms=["pa", "pb", "pc"]
        )
        nbhd = knn(table, vocab.index["pa"], 99)
        assert len(nbhd.members) == 3

    def test_tie_breaks_toward_lower_index(self, tmp_path):
        # pb and pc are mirror images: equidistant from pa.
        table, vocab = table_from_points(
            tmp_path, [(0.0, 0.0), (0.3, 0.0), (-0.3, 0.0)], terms=["pa", "pb", "pc"]
        )
        nbhd = knn(table, vocab.index["pa"], 2)
        lower = min(vocab.index["pb"], vocab.index["pc"])
        assert nbhd.member_indices() == [vocab.index["pa"], lower]

    def test_uncovered_center_rejected(self, tmp_path):
        vocab = Vocabulary(terms=["aa", "bb"])
        path = write_embedding_file(tmp_path / "e.txt", [("aa", (0.1, 0.0))])
        table = load_embeddings(path, vocab)
        with pytest.raises(ContractError):
            knn(table, vocab.index["bb"], 2)

    def test_distances_nondecreasing(self, tmp_path):
        rng = np.random.default_rng(9)
        points = ball_points(rng, 12, 2)
        table, vocab = table_from_points(
            tmp_path, points, terms=[f"w{i:02d}" for i in range(12)]
        )
        nbhd = knn(table, 0, 12)
        dists = [d for _, d in nbhd.members]
        assert dists == sorted(dists)


def three_point_neighborhood(tmp_path, d01=1.0, d02=2.0, d12=2.5):
    """Place three ball points with the prescribed pairwise distances.

    The first two go on the x axis at hyperbolic ranges d01 and d02 from the
    origin-side point; the third coordinate comes from the closed-form angle
    that realizes d12.
    """
    r1 = math.tanh(d01 / 2.0)
    r2 = math.tanh(d02 / 2.0)
    # |u - v|^2 needed for a target distance D between radii r1, r2:
    want = (math.cosh(d12) - 1.0) * (1 - r1 * r1) * (1 - r2 * r2) / 2.0
    cos_phi = (r1 * r1 + r2 * r2 - want) / (2.0 * r1 * r2)
    phi = math.acos(cos_phi)
    points = [
        (0.0, 0.0),
        (r1, 0.0),
        (r2 * math.cos(phi), r2 * math.sin(phi)),
    ]
    return table_from_points(tmp_path, points, terms=["pw", "px", "py"])


class TestNeighborhoodSimilarity:
    def test_prescribed_distances_example(self, tmp_path):
        table, vocab = three_point_neighborhood(tmp_path)
        center = vocab.index["pw"]
        nbhd = knn(table, center, 3)
        sims = dict(neighborhood_similarity(nbhd, table))
        assert sims[center] == 1.0
        assert sims[vocab.index["px"]] == pytest.approx(1 - 1 / 2.5, abs=1e-9)
        assert sims[vocab.index["py"]] == pytest.approx(1 - 2 / 2.5, abs=1e-9)

    def test_center_similarity_is_one(self, tmp_path):
        rng = np.random.default_rng(4)
        table, vocab = table_from_points(
            tmp_path, ball_points(rng, 6, 2), terms=[f"w{i}" for i in range(6)]
        )
        nbhd = knn(table, 0, 4)
        sims = neighborhood_similarity(nbhd, table)
        assert sims[0] == (0, 1.0)

    def test_two_point_boundary(self, tmp_path):
        table, vocab = table_from_points(tmp_path, [(0.0, 0.0), (0.4, 0.0)], terms=["pa", "pb"])
        nbhd = knn(table, vocab.index["pa"], 2)
        sims = dict(neighborhood_similarity(nbhd, table))
        assert sims[vocab.index["pb"]] == 0.0

    def test_coincident_members_all_one(self, tmp_path):
        table, vocab = table_from_points(
            tmp_path, [(0.1, 0.1), (0.1, 0.1), (0.1, 0.1)], terms=["pa", "pb", "pc"]
        )
        nbhd = knn(table, vocab.index["pa"], 3)
        assert all(s == 1.0 for _, s in neighborhood_similarity(nbhd, table))

    def test_values_in_unit_interval(self, tmp_path):
        rng = np.random.default_rng(6)
        table, vocab = table_from_points(
            tmp_path, ball_points(rng, 15, 3), terms=[f"w{i:02d}" for i in range(15)]
        )
        for w in range(15):
            sims = neighborhood_similarity(knn(table, w, 8), table)
            values = [s for _, s in sims]
            assert min(values) >= 0.0 and max(values) <= 1.0

    def test_needs_two_members(self, tmp_path):
        table, vocab = table_from_points(tmp_path, [(0.0, 0.0)], terms=["pa"])
        nbhd = knn(table, 0, 1)
        with pytest.raises(ContractError):
            neighborhood_similarity(nbhd, table)


class TestSimilarityMatrix:
    def test_alpha_zero_keeps_raw_values(self, tmp_path):
        table, vocab = three_point_neighborhood(tmp_path)
        entries = build_similarity_matrix(table, k_s=3, alpha=0.0).entries.tocsr()
        w = vocab.index["pw"]
        assert entries[w, vocab.index["px"]] == pytest.approx(0.6, abs=1e-9)
        assert entries[w, vocab.index["py"]] == pytest.approx(0.2, abs=1e-9)

    def test_alpha_one_reduces_to_identity(self, tmp_path):
        rng = np.random.default_rng(8)
        table, vocab = table_from_points(
            tmp_path, ball_points(rng, 8, 2), terms=[f"w{i}" for i in range(8)]
        )
        ms = build_similarity_matrix(table, k_s=5, alpha=1.0)
        assert np.array_equal(ms.entries.toarray(), np.eye(8))  # identity on covered terms

    def test_threshold_example(self, tmp_path):
        table, vocab = three_point_neighborhood(tmp_path)
        ms = build_similarity_matrix(table, k_s=3, alpha=0.4)
        w = vocab.index["pw"]
        row = ms.entries.toarray()[w]
        assert row[vocab.index["px"]] == pytest.approx(0.6, abs=1e-9)
        assert row[vocab.index["py"]] == 0.0
        assert row[w] == 1.0

    def test_entries_within_bounds_and_diagonal(self, tmp_path):
        rng = np.random.default_rng(10)
        table, vocab = table_from_points(
            tmp_path, ball_points(rng, 20, 3), terms=[f"w{i:02d}" for i in range(20)]
        )
        ms = build_similarity_matrix(table, k_s=7, alpha=0.2)
        assert ms.entries.data.min() >= 0.0 and ms.entries.data.max() <= 1.0
        assert np.allclose(ms.entries.toarray().diagonal(), 1.0)

    def test_raising_alpha_never_adds_nonzeros(self, tmp_path):
        rng = np.random.default_rng(12)
        table, vocab = table_from_points(
            tmp_path, ball_points(rng, 15, 2), terms=[f"w{i:02d}" for i in range(15)]
        )
        nnz = [
            build_similarity_matrix(table, k_s=6, alpha=a).entries.nnz
            for a in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert nnz == sorted(nnz, reverse=True)

    def test_euclidean_mode_uses_clamped_cosine(self, tmp_path):
        # opposite vectors: cosine -1 clamps to 0 and falls below any alpha
        table, vocab = table_from_points(
            tmp_path, [(1.0, 0.0), (-1.0, 0.0), (1.0, 0.05)],
            space="euclidean", terms=["pa", "pb", "pc"],
        )
        entries = build_similarity_matrix(table, k_s=3, alpha=0.0).entries.tocsr()
        pa, pb, pc = vocab.index["pa"], vocab.index["pb"], vocab.index["pc"]
        assert entries[pa, pb] == 0.0
        assert entries[pa, pc] == pytest.approx(
            euclidean_cosine((1.0, 0.0), (1.0, 0.05)), abs=1e-9
        )

    def test_alpha_validation(self, tmp_path):
        table, _ = table_from_points(tmp_path, [(0.0, 0.0), (0.1, 0.0)], terms=["pa", "pb"])
        with pytest.raises(ConfigurationError):
            build_similarity_matrix(table, k_s=2, alpha=1.5)


class TestHierarchyMatrix:
    def test_saturating_k_gives_all_ones(self, tmp_path):
        rng = np.random.default_rng(13)
        table, vocab = table_from_points(
            tmp_path, ball_points(rng, 5, 2), terms=[f"w{i}" for i in range(5)]
        )
        mh = build_hierarchy_matrix(table, k_h=5)
        assert (mh.entries.toarray() == 1).all()

    def test_k_one_is_identity(self, tmp_path):
        rng = np.random.default_rng(14)
        table, vocab = table_from_points(
            tmp_path, ball_points(rng, 5, 2), terms=[f"w{i}" for i in range(5)]
        )
        mh = build_hierarchy_matrix(table, k_h=1)
        assert np.array_equal(mh.entries.toarray(), np.eye(5))

    def test_collinear_rows(self, tmp_path):
        table, vocab = table_from_points(
            tmp_path, [(0.0, 0.0), (0.2, 0.0), (0.8, 0.0)], terms=["pa", "pb", "pc"]
        )
        entries = build_hierarchy_matrix(table, k_h=2).entries.tocsr()
        pa, pb, pc = (vocab.index[t] for t in ("pa", "pb", "pc"))
        assert set(entries[pa].indices) == {pa, pb}
        assert set(entries[pc].indices) == {pc, pb}

    def test_binary_with_full_diagonal(self, tmp_path):
        rng = np.random.default_rng(15)
        table, vocab = table_from_points(
            tmp_path, ball_points(rng, 12, 3), terms=[f"w{i:02d}" for i in range(12)]
        )
        mh = build_hierarchy_matrix(table, k_h=4)
        assert set(np.unique(mh.entries.data)) == {1.0}
        assert np.allclose(mh.entries.toarray().diagonal(), 1.0)

    def test_raising_k_never_removes_nonzeros(self, tmp_path):
        rng = np.random.default_rng(16)
        table, vocab = table_from_points(
            tmp_path, ball_points(rng, 12, 2), terms=[f"w{i:02d}" for i in range(12)]
        )
        nnz = [build_hierarchy_matrix(table, k_h=k).entries.nnz for k in (1, 3, 6, 9, 12)]
        assert nnz == sorted(nnz)


def reference_sq_norms(x):
    acc = np.zeros(x.shape[0])
    for k in range(x.shape[1]):
        acc = acc + x[:, k] * x[:, k]
    return acc


def reference_distance_row(points, row, space):
    """Distances from points[row] to every row of points: a single center's row."""
    point = points[row]
    if space == "hyperbolic":
        diff_sq = reference_sq_norms(points - point[None, :])
        denom = (1.0 - float(reference_sq_norms(point[None, :])[0])) * (
            1.0 - reference_sq_norms(points)
        )
        arg = 1.0 + 2.0 * diff_sq / denom
        np.maximum(arg, 1.0, out=arg)
        return np.arccosh(arg)
    norms = np.sqrt(reference_sq_norms(points))
    pn = float(np.sqrt(reference_sq_norms(point[None, :])[0]))
    out = np.zeros(points.shape[0])
    if pn != 0.0:
        sims = points @ point
        nonzero = norms > 0.0
        out[nonzero] = sims[nonzero] / (norms[nonzero] * pn)
    return 1.0 - out


def reference_builders(table, k_s, alpha, k_h):
    """S and H from a per-term loop: one kNN pass per term and matrix, scalar pairwise maximum."""
    points, terms, m = table.matrix, table.term_indices, table.vocab_size

    def neighbors(r, k):
        dists = reference_distance_row(points, r, table.space)
        cand = np.flatnonzero(np.arange(len(terms)) != r)
        order = np.lexsort((terms[cand], dists[cand]))[: max(k - 1, 0)]
        return [r] + list(cand[order]), [0.0] + list(dists[cand][order])

    def assemble(rows, cols, vals):
        covered = set(rows)
        missing = [w for w in range(m) if w not in covered]
        entries = sparse.csr_matrix(
            (np.array(vals + [1.0] * len(missing)),
             (np.array(rows + missing, dtype=np.int64), np.array(cols + missing, dtype=np.int64))),
            shape=(m, m),
        )
        entries.eliminate_zeros()
        entries.sort_indices()
        return entries

    s_rows, s_cols, s_vals, h_rows, h_cols = [], [], [], [], []
    for r, w in enumerate(terms):
        members, dists = neighbors(r, k_s)
        if len(members) >= 2:
            if table.space == "hyperbolic":
                rows = points[members]
                center = reference_distance_row(rows, 0, "hyperbolic")
                max_dist = float(center.max())
                for i in range(1, len(members)):
                    pair = reference_distance_row(rows[i:], 0, "hyperbolic")
                    max_dist = max(max_dist, float(pair.max()))
                sims = [1.0] * len(members) if max_dist == 0.0 else list(1.0 - center / max_dist)
            else:
                sims = [max(0.0, 1.0 - d) for d in dists]
                sims[0] = 1.0
            for j, (member, value) in enumerate(zip(members, sims)):
                if j == 0 or value >= alpha:
                    s_rows.append(int(w))
                    s_cols.append(int(terms[member]))
                    s_vals.append(float(value))
        members, _ = neighbors(r, k_h)
        h_rows += [int(w)] * len(members)
        h_cols += [int(terms[member]) for member in members]
    return (assemble(s_rows, s_cols, s_vals),
            assemble(h_rows, h_cols, [1.0] * len(h_rows)))


def random_table(seed, n, dim, space, uncovered=3, duplicates=2):
    """A table with `uncovered` vocabulary terms lacking vectors and some repeated points."""
    rng = np.random.default_rng(seed)
    points = ball_points(rng, n, dim)
    for j in range(min(duplicates, n - 1)):
        points[j + 1] = points[0]
    if space == "euclidean":
        points = points * rng.uniform(0.5, 3.0, size=(n, 1))
    m = n + uncovered
    terms = np.sort(rng.choice(m, size=n, replace=False)).astype(np.int64)
    return EmbeddingTable(
        dim=dim,
        space=space,
        vocab_size=m,
        term_indices=terms,
        matrix=points,
        covered=frozenset(int(t) for t in terms),
        _row_of={int(t): r for r, t in enumerate(terms)},
    )


def assert_same_csr(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("space", ["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("k", [1, 2, 5, 40])
    def test_builders_bitwise_equal_reference(self, space, k):
        for seed in range(4):
            table = random_table(seed, n=int(12 + 7 * seed), dim=2 + seed, space=space)
            for alpha in (0.0, 0.5):
                want_s, want_h = reference_builders(table, k, alpha, k)
                assert_same_csr(build_similarity_matrix(table, k, alpha).entries, want_s)
                assert_same_csr(build_hierarchy_matrix(table, k).entries, want_h)

    @pytest.mark.parametrize("space", ["hyperbolic", "euclidean"])
    def test_ties_on_a_grid(self, space):
        # coarse grid coordinates make many equal distances
        table = random_table(21, n=30, dim=2, space=space)
        table.matrix[:] = np.round(table.matrix, 1)
        want_s, want_h = reference_builders(table, 6, 0.2, 9)
        assert_same_csr(build_similarity_matrix(table, 6, 0.2).entries, want_s)
        assert_same_csr(build_hierarchy_matrix(table, 9).entries, want_h)

    @pytest.mark.parametrize("space", ["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("k", [12, 25])
    def test_small_blocks_bitwise_equal_reference(self, space, k, monkeypatch):
        # 64 values per block: member rows are split (5 or 2 rows a chunk),
        # each block holds one neighborhood, and the neighbor table and the
        # matrix rows are built over many blocks, as at the default k_s = 500.
        monkeypatch.setattr(hypspace, "_BLOCK_VALUES", 64)
        table = random_table(40, n=30, dim=3, space=space)
        want_s, want_h = reference_builders(table, k, 0.3, k)
        assert_same_csr(build_similarity_matrix(table, k, 0.3).entries, want_s)
        assert_same_csr(build_hierarchy_matrix(table, k).entries, want_h)

    @pytest.mark.parametrize("space", ["hyperbolic", "euclidean"])
    def test_sliced_neighbor_table_equals_narrow_table(self, space):
        wide = random_table(30, n=25, dim=3, space=space)
        _neighbor_table(wide, 25)
        for k in (1, 2, 7, 25, 60):
            narrow = random_table(30, n=25, dim=3, space=space)
            for got, want in zip(_neighbor_table(wide, k), _neighbor_table(narrow, k)):
                assert np.array_equal(got, want)
            assert wide._neighbors[0].shape[1] == 25  # sliced, not rebuilt


class TestEuclideanMode:
    def test_knn_uses_cosine_distance(self, tmp_path):
        # pc points near pa's direction; pb is longer but less aligned.
        table, vocab = table_from_points(
            tmp_path, [(1.0, 0.0), (0.5, 0.8), (2.0, 0.1)],
            space="euclidean", terms=["pa", "pb", "pc"],
        )
        nbhd = knn(table, vocab.index["pa"], 2)
        assert nbhd.member_indices() == [vocab.index["pa"], vocab.index["pc"]]

    def test_duplicate_embedding_line_keeps_first(self, tmp_path):
        vocab = Vocabulary(terms=["cat"])
        path = tmp_path / "vec.txt"
        path.write_text("cat 0.1 0.0\ncat 0.5 0.5\n", encoding="utf-8")
        table = load_embeddings(path, vocab)
        assert np.allclose(table.vector(0), [0.1, 0.0])


def assert_same_csr_arrays(loaded, matrix):
    """`loaded` holds bitwise the CSR arrays of `matrix` in canonical form."""
    canonical = matrix.tocsr().copy()
    canonical.sum_duplicates()
    assert loaded.shape == canonical.shape
    assert np.array_equal(loaded.indptr, canonical.indptr)
    assert np.array_equal(loaded.indices, canonical.indices)
    assert loaded.data.tobytes() == canonical.data.tobytes()


def csr_file_arrays(path, cols):
    """The header and the indptr, indices and data arrays of a `save_csr`
    file, as writable arrays to damage and `write_csr_file` back."""
    blob = path.read_bytes()
    header = np.frombuffer(blob, dtype="<u8", count=3).copy()
    rows, nnz = int(header[0]), int(header[2])
    arrays, offset = [], 24
    for dtype, count in zip(sparse_io._layout(cols), (rows + 1, nnz, nnz)):
        arrays.append(np.frombuffer(blob, dtype=dtype, count=count, offset=offset).copy())
        offset += arrays[-1].nbytes
    return header, *arrays


def write_csr_file(path, *arrays):
    path.write_bytes(b"".join(a.tobytes() for a in arrays))


class TestSparseIo:
    def test_csr_round_trip_is_bitwise(self, tmp_path):
        from scipy import sparse

        matrix = sparse.random(30, 40, density=0.2, random_state=1).tocsr()
        path = tmp_path / "m.bin"
        save_csr(path, matrix)
        loaded = read_csr(path, (30, 40)).tocsr()
        assert (loaded != matrix).nnz == 0
        assert np.array_equal(loaded.data, matrix.tocsr().data)

    def test_file_is_the_header_and_the_canonical_csr_arrays(self, tmp_path):
        # Empty rows (first, inner and last), an uncanonical scipy input and
        # a matrix with nothing stored, each given as scipy and as CsrArrays.
        from scipy import sparse

        dense = sparse.random(9, 11, density=0.4, random_state=6).toarray()
        dense[[0, 4, 8]] = 0.0
        uncanonical = sparse.csr_matrix(
            (np.array([1.0, 2.0, 0.5, 3.0]), np.array([2, 1, 1, 0]), np.array([0, 3, 4, 4])),
            shape=(3, 3),
        )
        for matrix in (sparse.csr_matrix(dense), uncanonical, sparse.csr_matrix((4, 5))):
            canonical = matrix.copy()
            canonical.sum_duplicates()
            want = b"".join(np.asarray(a, dtype=t).tobytes() for a, t in (
                ([*canonical.shape, canonical.nnz], "<u8"), (canonical.indptr, "<i8"),
                (canonical.indices, "<i4"), (canonical.data, "<f8"),
            ))
            for given in (matrix, sparse_io.csr_arrays(matrix)):
                save_csr(tmp_path / "m.bin", given)
                assert (tmp_path / "m.bin").read_bytes() == want

    def test_cache_store_and_hit(self, tmp_path):
        from scipy import sparse

        cache = MatrixCache(tmp_path / "cache")
        matrix = sparse.random(10, 10, density=0.3, random_state=2).tocsr()
        key = cache_key("similarity", corpus="abc", alpha=0.1)
        assert cache.load(key, (10, 10)) is None
        cache.save(key, matrix)
        assert_same_csr_arrays(cache.load(key, (10, 10)), matrix)

    def test_save_ignores_stale_temporary_path(self, tmp_path):
        # a leftover at the old fixed temporary name must not block the write
        from scipy import sparse

        cache = MatrixCache(tmp_path / "cache")
        matrix = sparse.random(10, 10, density=0.3, random_state=3).tocsr()
        key = cache_key("hierarchy", corpus="abc", k_h=5)
        (cache.directory / f"{key}.tmp").mkdir()
        cache.save(key, matrix)
        assert_same_csr_arrays(cache.load(key, (10, 10)), matrix)
        assert sorted(p.name for p in cache.directory.iterdir()) == [f"{key}.bin", f"{key}.tmp"]

    @pytest.mark.parametrize(
        "damage, names",
        [
            ("columns-swapped", "entry 1 (row 0, col 1) does not follow col 5"),
            ("column-twice", "entry 1 (row 0, col 1) does not follow col 1"),
            ("indptr-falls", "indptr does not rise from 0 to 3 at indptr[2]"),
        ],
        ids=["columns-swapped", "column-twice", "indptr-falls"],
    )
    def test_entries_out_of_order_are_rejected(self, tmp_path, damage, names):
        from scipy import sparse

        matrix = sparse.csr_matrix(np.array([[0, 2.0, 0, 0, 0, 3.0], [4.0, 0, 0, 0, 0, 0]]))
        path = tmp_path / "m.bin"
        save_csr(path, matrix)
        header, indptr, indices, data = csr_file_arrays(path, 6)
        if damage == "columns-swapped":
            indices[[0, 1]] = indices[[1, 0]]
        elif damage == "column-twice":
            indices[1] = indices[0]
        else:  # row 0 ends past the end of row 1
            indptr[1] = 4
        write_csr_file(path, header, indptr, indices, data)
        with pytest.raises(ContractError, match=f"{path}: {re.escape(names)}"):
            read_csr(path, (2, 6))
        cache = MatrixCache(tmp_path / "cache")
        cache.path_for("k").write_bytes(path.read_bytes())
        assert cache.load("k", (2, 6)) is None

    def test_read_csr_returns_the_csr_arrays(self, tmp_path):
        from scipy import sparse

        dense = sparse.random(8, 9, density=0.4, random_state=5).toarray()
        dense[3] = 0.0  # an empty row
        matrix = sparse.csr_matrix(dense)
        save_csr(tmp_path / "m.bin", matrix)
        arrays = read_csr(tmp_path / "m.bin", (8, 9))
        assert isinstance(arrays, CsrArrays)
        assert arrays.data.size == matrix.nnz
        assert_same_csr_arrays(arrays, matrix)
        assert (arrays.tocsr() != matrix).nnz == 0

    def test_save_canonicalizes_uncanonical_matrices(self, tmp_path):
        from scipy import sparse

        # unsorted columns and a duplicate (0, 1) entry
        matrix = sparse.csr_matrix(
            (np.array([1.0, 2.0, 0.5, 3.0]), np.array([2, 1, 1, 0]), np.array([0, 3, 4])),
            shape=(2, 3),
        )
        save_csr(tmp_path / "m.bin", matrix)
        assert_same_csr_arrays(read_csr(tmp_path / "m.bin", (2, 3)), matrix)

    @pytest.mark.parametrize(
        "damage",
        ["partial-record", "one-byte-short", "header-cut", "row-beyond-shape", "col-beyond-shape"],
    )
    def test_damaged_cache_file_is_a_logged_miss(self, tmp_path, caplog, damage):
        from scipy import sparse

        cache = MatrixCache(tmp_path / "cache")
        matrix = sparse.random(10, 12, density=0.3, random_state=4).tocsr()
        key = cache_key("representation", corpus="abc")
        cache.save(key, matrix)
        path = cache.path_for(key)
        if damage == "partial-record":  # one byte more than the header implies
            path.write_bytes(path.read_bytes() + b"\x00")
        elif damage == "one-byte-short":
            path.write_bytes(path.read_bytes()[:-1])
        elif damage == "header-cut":  # rows and cols intact, the stored count gone
            path.write_bytes(path.read_bytes()[:16])
        else:
            header, indptr, indices, data = csr_file_arrays(path, 12)
            if damage == "row-beyond-shape":  # the header claims an eleventh row
                header[0] = 11
            else:
                indices[-1] = 12
            write_csr_file(path, header, indptr, indices, data)
        with pytest.raises(ContractError, match=str(path)):
            read_csr(path, (10, 12))
        with caplog.at_level("WARNING"):
            assert cache.load(key, (10, 12)) is None
        assert any("rebuilding" in r.message for r in caplog.records)

    def test_a_damaged_header_never_sizes_an_allocation(self, tmp_path, monkeypatch):
        from scipy import sparse

        path = tmp_path / "m.bin"
        save_csr(path, sparse.random(4, 5, density=0.5, random_state=9).tocsr())
        header, *arrays = csr_file_arrays(path, 5)
        header[2] = 1 << 62  # a stored count no file of this size holds
        write_csr_file(path, header, *arrays)
        reads = []
        real = np.fromfile
        monkeypatch.setattr(np, "fromfile", lambda *a, **k: reads.append(k) or real(*a, **k))
        with pytest.raises(ContractError, match="its header implies"):
            read_csr(path, (4, 5))
        assert reads == [{"dtype": "<u8", "count": 3}]

    def test_cache_key_depends_on_parameters(self):
        k1 = cache_key("similarity", corpus="abc", alpha=0.1)
        k2 = cache_key("similarity", corpus="abc", alpha=0.2)
        k3 = cache_key("hierarchy", corpus="abc", alpha=0.1)
        assert len({k1, k2, k3}) == 3
        assert k1 == cache_key("similarity", alpha=0.1, corpus="abc")

    def test_cache_key_depends_on_format_version(self, monkeypatch):
        key = cache_key("similarity", corpus="abc", alpha=0.1)
        monkeypatch.setattr(sparse_io, "CACHE_FORMAT_VERSION", sparse_io.CACHE_FORMAT_VERSION + 1)
        assert cache_key("similarity", corpus="abc", alpha=0.1) != key
