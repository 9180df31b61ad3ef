"""Non-negative matrix factorization with multiplicative updates.

Minimizes 0.5 * ||A - WH||_F^2 over nonnegative factors using the classic
multiplicative update rules, which never increase the objective. That
monotonicity is the property the test suite leans on, so the objective
value after every iteration is recorded on the result. The factors start
from one seeded uniform draw scaled to the mean entry of A.

A may be sparse or dense. The tree builder passes a node matrix as a
dense array when at least a fifth of its cells are stored (see
`hierarchy.DENSE_MIN_DENSITY`), where the two products with A below are
dense GEMMs: on planted nodes of 25-42% density, scipy's
sparse-times-dense dispatch took about twice as long. Sparser nodes stay
sparse, where the dense products would cost more time and memory.

Each iteration costs two products with A, A·Hᵀ and WᵀA, and four small
dense products: W·(H·Hᵀ), WᵀW, (WᵀW)·H and H·Hᵀ. The objective after an
iteration needs A·Hᵀ and H·Hᵀ of the new H, which are exactly what the
next W update needs, so they are computed once and carried over; WᵀW is
shared by the H update and the objective. Every product runs as
`np.dot` into a buffer allocated once per call (n×k, k×m or k×k), and
the clip and the quotient of each update are written into the same
buffers, so an iteration of a dense node allocates nothing; `np.dot`
gives the bits of `@` and costs less per call. On nodes of a few hundred
rows the loop's cost is numpy dispatch, not arithmetic. WᵀA is formed as
Wᵀ·A, not as (Aᵀ·W)ᵀ, so it is a C-ordered k×m array and the H quotient
runs over contiguous memory; A·Hᵀ is formed as is, since (H·Aᵀ)ᵀ would
be F-ordered. A scipy sparse node's two products with A are scipy's and
return new arrays.

The objective is ||A||² - 2·<W, A·Hᵀ> + <WᵀW, H·Hᵀ>, each inner product
a BLAS dot (`np.vdot`). ||A||² is `np.vdot` of the stored values (a
scipy node's `data`, or the dense array), the view the nonnegativity and
all-zero checks read too, so no n×m temporary is made. A dot product sums
in another order than the elementwise product and `sum` the earlier loop
used, so the objective, and through the stopping rule W and H, may differ
from that loop in the last bits; on the benchmark's planted nodes they
did not.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, ShapeError

log = logging.getLogger(__name__)

_EPS = 1e-12


@dataclass
class NmfConfig:
    n_topics: int
    max_iter: int = 300
    tol: float = 1e-5
    seed: int = 42

    def validate(self):
        if self.n_topics < 1:
            raise ConfigurationError("n_topics must be >= 1")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")
        if not 0 < self.tol < float("inf"):
            raise ConfigurationError(f"tol must be finite and > 0, got {self.tol}")


@dataclass
class FactorPair:
    """Document-topic and topic-term factors plus the fitting trace."""

    W: np.ndarray
    H: np.ndarray
    objective_history: list[float] = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False


def _is_sparse(a) -> bool:
    # A scipy sparse matrix exists only once scipy.sparse is loaded; this
    # module never loads it.
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(a)


def _sq_frobenius(a) -> float:
    stored = a.data if _is_sparse(a) else a
    return float(np.vdot(stored, stored))


def _dot(x, y, out):
    """x·y, written into `out` when both are dense arrays. A scipy sparse
    operand's product takes no buffer and returns a new array. Either way
    the bits are those of `x @ y`."""
    if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
        return np.dot(x, y, out=out)
    return x @ y


def _sq_error(norm_a_sq: float, w, aht, wtw, hht) -> float:
    """||A - WH||^2 without forming WH densely, from A H^T, W^T W and H H^T:
    ||A||^2 - 2*<W, A H^T> + <W^T W, H H^T>, clipped at 0; each inner
    product is one BLAS dot over the flattened arrays."""
    cross = float(np.vdot(w, aht))
    gram = float(np.vdot(wtw, hht))
    return max(norm_a_sq - 2.0 * cross + gram, 0.0)


def _init_random(a, k: int, rng: np.random.Generator):
    n, m = a.shape
    mean = (a.sum() / (n * m)) if n * m else 0.0
    scale = np.sqrt(mean / k) if mean > 0 else 1e-6
    w = rng.random((n, k)) * scale
    h = rng.random((k, m)) * scale
    return w, h


def factorize(a, config: NmfConfig) -> FactorPair:
    """Factor a nonnegative matrix into W (docs x topics) and H (topics x terms).

    Deterministic for a fixed config: the seeded initialization plus the
    update rules involve no other randomness. An all-zero input short
    circuits to zero factors with a warning instead of failing.
    """
    config.validate()
    values = a.values if hasattr(a, "values") else a
    if _is_sparse(values):  # the checks and ||A||² read the stored values
        stored = values.data
    else:
        values = stored = np.asarray(values, dtype=float)
    n, m = values.shape
    if stored.size and stored.min() < 0:
        raise ContractError("factorization input must be nonnegative")

    if not stored.any():
        log.warning("factorization input is all zeros; returning zero factors")
        pair = FactorPair(W=np.zeros((n, config.n_topics)), H=np.zeros((config.n_topics, m)))
        pair.objective_history = [0.0]
        pair.converged = True
        return pair

    k = config.n_topics
    w, h = _init_random(values, k, np.random.default_rng(config.seed))
    wt, ht = w.T, h.T  # views, so they follow the in-place updates

    norm_a_sq = _sq_frobenius(stored)
    # Every product and quotient goes into one of these, allocated once per
    # call (a sparse A's products make their own arrays; see `_dot`).
    hht, wtw = np.empty((k, k)), np.empty((k, k))
    w_step, h_step = np.empty((n, k)), np.empty((k, m))
    aht, wta = np.empty((n, k)), np.empty((k, m))
    aht = _dot(values, ht, aht)
    np.dot(h, ht, out=hht)
    np.dot(wt, w, out=wtw)
    history = [0.5 * _sq_error(norm_a_sq, w, aht, wtw, hht)]
    converged = False
    it = 0
    for it in range(1, config.max_iter + 1):
        np.maximum(np.dot(w, hht, out=w_step), _EPS, out=w_step)
        w *= np.divide(aht, w_step, out=w_step)
        np.dot(wt, w, out=wtw)
        np.maximum(np.dot(wtw, h, out=h_step), _EPS, out=h_step)
        h *= np.divide(_dot(wt, values, wta), h_step, out=h_step)
        aht = _dot(values, ht, aht)
        np.dot(h, ht, out=hht)
        obj = 0.5 * _sq_error(norm_a_sq, w, aht, wtw, hht)
        history.append(obj)
        prev = history[-2]
        if prev > 0 and abs(prev - obj) / prev < config.tol:
            converged = True
            break
        if obj == 0.0:
            converged = True
            break
    return FactorPair(W=w, H=h, objective_history=history, n_iter=it, converged=converged)


def reconstruction_error(a, w, h) -> float:
    """Frobenius norm of (A - WH), computed without materializing WH."""
    values = a.values if hasattr(a, "values") else a
    n, m = values.shape
    if w.shape[0] != n or h.shape[1] != m or w.shape[1] != h.shape[0]:
        raise ShapeError(
            f"inconsistent shapes: A {values.shape}, W {w.shape}, H {h.shape}"
        )
    return float(np.sqrt(_sq_error(_sq_frobenius(values), w, values @ h.T, w.T @ w, h @ h.T)))
