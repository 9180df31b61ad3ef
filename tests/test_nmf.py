import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from hyhtm import FactorPair, NmfConfig, factorize, reconstruction_error
from hyhtm import nmf
from hyhtm.errors import ConfigurationError, ContractError, ShapeError


def random_nonnegative(rng, n, m, density):
    matrix = sparse.random(n, m, density=density, random_state=int(rng.integers(1 << 31)))
    matrix.data = np.abs(matrix.data)
    return matrix.tocsr()


class TestFactorize:
    def test_rank_one_recovery(self):
        a = sparse.csr_matrix(np.outer([1.0, 2.0], [3.0, 0.0, 1.0]))
        pair = factorize(a, NmfConfig(n_topics=1, max_iter=500, tol=1e-12, seed=42))
        rel = reconstruction_error(a, pair.W, pair.H) / np.sqrt((a.data**2).sum())
        assert rel < 1e-4

    def test_all_zero_input_returns_zero_factors(self, caplog):
        stored_zeros = sparse.csr_matrix(
            (np.zeros(2), np.array([0, 2]), np.array([0, 1, 1, 2, 2])), shape=(4, 3)
        )
        for a in (sparse.csr_matrix((4, 3)), stored_zeros, np.zeros((4, 3))):
            caplog.clear()
            with caplog.at_level("WARNING"):
                pair = factorize(a, NmfConfig(n_topics=2))
            assert not pair.W.any() and not pair.H.any()
            assert pair.n_iter == 0 and pair.objective_history == [0.0]
            assert any("zero" in r.message for r in caplog.records)

    def test_negative_input_rejected(self):
        a = sparse.csr_matrix(np.array([[1.0, -0.5]]))
        with pytest.raises(ContractError):
            factorize(a, NmfConfig(n_topics=1))

    def test_objective_monotone_small_batch(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            n, m = int(rng.integers(5, 40)), int(rng.integers(5, 60))
            a = random_nonnegative(rng, n, m, float(rng.uniform(0.05, 1.0)))
            if a.nnz == 0:
                continue
            pair = factorize(a, NmfConfig(n_topics=3, max_iter=60, seed=trial))
            hist = pair.objective_history
            for prev, cur in zip(hist, hist[1:]):
                assert cur <= prev + 1e-10

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(22)
        a = random_nonnegative(rng, 20, 30, 0.3)
        p1 = factorize(a, NmfConfig(n_topics=4, max_iter=40, seed=7))
        p2 = factorize(a, NmfConfig(n_topics=4, max_iter=40, seed=7))
        assert np.array_equal(p1.W, p2.W)
        assert np.array_equal(p1.H, p2.H)
        assert p1.objective_history == p2.objective_history

    def test_zero_rows_give_zero_w_rows(self):
        dense = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.1, 3.0]])
        pair = factorize(sparse.csr_matrix(dense), NmfConfig(n_topics=2, max_iter=30))
        assert not pair.W[1].any()

    def test_nonnegativity_preserved(self):
        rng = np.random.default_rng(23)
        a = random_nonnegative(rng, 25, 35, 0.4)
        pair = factorize(a, NmfConfig(n_topics=5, max_iter=50, seed=1))
        assert pair.W.min() >= 0 and pair.H.min() >= 0

    def test_dense_input_accepted(self):
        rng = np.random.default_rng(24)
        a = rng.random((10, 12))
        pair = factorize(a, NmfConfig(n_topics=2, max_iter=30, seed=0))
        assert pair.W.shape == (10, 2) and pair.H.shape == (2, 12)

    def test_dense_input_makes_no_input_sized_temporary(self):
        a = np.random.default_rng(25).random((1000, 500))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            factorize(a, NmfConfig(n_topics=4, max_iter=5, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 0.25 * a.nbytes

    def test_convergence_flag_and_history_length(self):
        a = sparse.csr_matrix(np.outer([1.0, 2.0, 3.0], [1.0, 0.5]))
        pair = factorize(a, NmfConfig(n_topics=1, max_iter=500, tol=1e-9, seed=0))
        assert pair.converged
        assert len(pair.objective_history) == pair.n_iter + 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            NmfConfig(n_topics=0).validate()
        with pytest.raises(ConfigurationError):
            NmfConfig(n_topics=2, max_iter=0).validate()
        with pytest.raises(ConfigurationError):
            NmfConfig(n_topics=2, tol=0.0).validate()
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                NmfConfig(n_topics=2, tol=tol).validate()


class TestReconstructionError:
    def test_exact_factors_give_zero(self):
        w = np.array([[1.0], [2.0]])
        h = np.array([[3.0, 0.0, 1.0]])
        a = sparse.csr_matrix(w @ h)
        assert reconstruction_error(a, w, h) < 1e-9

    def test_zero_factors_give_input_norm(self):
        a = sparse.csr_matrix(np.array([[3.0, 4.0]]))
        w = np.zeros((1, 2))
        h = np.zeros((2, 2))
        assert reconstruction_error(a, w, h) == pytest.approx(5.0, abs=1e-12)

    def test_hand_value(self):
        a = np.array([[1.0]])
        assert reconstruction_error(a, np.array([[1.0]]), np.array([[0.5]])) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        a = np.ones((2, 3))
        with pytest.raises(ShapeError):
            reconstruction_error(a, np.ones((2, 2)), np.ones((3, 3)))
        with pytest.raises(ShapeError):
            reconstruction_error(a, np.ones((3, 2)), np.ones((2, 3)))


def reference_factorize(a, config: NmfConfig) -> FactorPair:
    """The textbook loop: three sparse products per iteration (A·Hᵀ for the
    W update, WᵀA for the H update, A·Hᵀ again for the objective), with
    H·Hᵀ and WᵀW rebuilt wherever they are used, and ||A||² computed here
    rather than by the module under test."""
    w, h = nmf._init_random(a, config.n_topics, np.random.default_rng(config.seed))
    norm_a_sq = float(a.data @ a.data) if sparse.issparse(a) else float(np.vdot(a, a))

    def objective(w, h):
        cross = float(np.vdot(w, a @ h.T))
        gram = float(np.vdot(w.T @ w, h @ h.T))
        return 0.5 * max(norm_a_sq - 2.0 * cross + gram, 0.0)

    history = [objective(w, h)]
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        w *= (a @ h.T) / np.maximum(w @ (h @ h.T), nmf._EPS)
        h *= (w.T @ a) / np.maximum((w.T @ w) @ h, nmf._EPS)
        obj = objective(w, h)
        history.append(obj)
        prev = history[-2]
        if prev > 0 and abs(prev - obj) / prev < config.tol:
            converged = True
            break
        if obj == 0.0:
            converged = True
            break
    return FactorPair(W=w, H=h, objective_history=history, n_iter=it, converged=converged)


def _seeded_input(seed, n, m, density, dense):
    a = random_nonnegative(np.random.default_rng(seed), n, m, density)
    return a.toarray() if dense else a


# An exactly factorizable block matrix: with k=2 and seed 0 the objective
# reaches 0.0 at iteration 15, before the relative tolerance fires.
_BLOCK = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]])


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
class TestMatchesTextbookLoop:
    """factorize reuses products across iterations; every bit must match."""

    def assert_same(self, a, config, expect_converged=None):
        ref = reference_factorize(a, config)
        got = factorize(a, config)
        assert got.objective_history == ref.objective_history
        assert np.array_equal(got.W, ref.W)
        assert np.array_equal(got.H, ref.H)
        assert got.n_iter == ref.n_iter
        assert got.converged == ref.converged
        if expect_converged is not None:
            assert got.converged == expect_converged
        return got

    def test_seeded_batch(self, dense):
        rng = np.random.default_rng(31)
        for trial in range(12):
            n, m = int(rng.integers(4, 50)), int(rng.integers(4, 70))
            a = _seeded_input(trial, n, m, float(rng.uniform(0.05, 0.9)), dense)
            k = int(rng.integers(2, 7))
            self.assert_same(a, NmfConfig(n_topics=k, max_iter=80, tol=1e-7, seed=trial))

    def test_single_topic(self, dense):
        a = _seeded_input(1, 30, 40, 0.3, dense)
        self.assert_same(a, NmfConfig(n_topics=1, max_iter=120, tol=1e-9, seed=5))

    def test_early_convergence(self, dense):
        a = _seeded_input(2, 25, 35, 0.4, dense)
        pair = self.assert_same(
            a, NmfConfig(n_topics=3, max_iter=300, tol=1e-3, seed=2), expect_converged=True
        )
        assert pair.n_iter < 300

    def test_zero_objective_exit(self, dense):
        a = _BLOCK if dense else sparse.csr_matrix(_BLOCK)
        pair = self.assert_same(
            a, NmfConfig(n_topics=2, max_iter=300, tol=1e-12, seed=0), expect_converged=True
        )
        assert pair.objective_history[-1] == 0.0 and pair.objective_history[-2] > 0.0
        assert pair.n_iter < 300

    def test_single_iteration(self, dense):
        a = _seeded_input(3, 20, 30, 0.5, dense)
        pair = self.assert_same(a, NmfConfig(n_topics=4, max_iter=1, seed=3))
        assert pair.n_iter == 1 and len(pair.objective_history) == 2

    def test_reconstruction_error_matches_expansion(self, dense):
        a = _seeded_input(5, 15, 20, 0.5, dense)
        rng = np.random.default_rng(6)
        w, h = rng.random((15, 3)), rng.random((3, 20))
        cross = float(np.sum(w * (a @ h.T)))
        gram = float(np.sum((w.T @ w) * (h @ h.T)))
        expected = float(np.sqrt(max(nmf._sq_frobenius(a) - 2.0 * cross + gram, 0.0)))
        assert reconstruction_error(a, w, h) == expected
