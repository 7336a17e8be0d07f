"""Assembly and analysis of the localization iteration matrices.

The network update is one row per sensor: its m+1 barycentric weights,
scattered into an anchor-facing block B (M x (m+1)) and a sensor-facing
block P (M x M). Stacked with an identity over the anchors this is a
row-stochastic iteration matrix; viewed as a Markov chain the anchors are
absorbing and the sensors transient, which is why the solve
(I - P)^-1 B U reproduces the true sensor positions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components


class SystemMatrixError(ValueError):
    """Base class for system construction/solve errors."""


class MissingTriangulationError(SystemMatrixError):
    pass


class SingularSystemError(SystemMatrixError):
    """I - P not invertible to working precision: chain is not absorbing."""


class NoConvergenceError(SystemMatrixError):
    """The spectral radius bracket (lo, hi) did not close within its solve cap."""

    def __init__(self, estimate: float, iterations: int, bracket=None):
        self.estimate = float(estimate)
        self.iterations = int(iterations)
        self.bracket = (self.estimate,) * 2 if bracket is None else tuple(map(float, bracket))
        lo, hi = self.bracket
        super().__init__(
            f"spectral radius did not converge in {iterations} solves; it lies in "
            f"[{lo:.12g}, {hi:.12g}], estimate {estimate:.12g}"
        )


@dataclass(frozen=True)
class SystemMatrices:
    """Sparse sensor-update blocks; every row of [B | P] is a convex combination."""

    B: sp.csr_matrix
    P: sp.csr_matrix
    m: int

    @property
    def M(self) -> int:
        return self.B.shape[0]

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.B.sum(axis=1)).ravel() + np.asarray(
            self.P.sum(axis=1)
        ).ravel()

    def validate(self):
        if self.B.shape != (self.M, self.m + 1) or self.P.shape != (self.M, self.M):
            raise SystemMatrixError("block shapes are inconsistent")
        for block in (self.B, self.P):
            if block.nnz and (block.data.min() < 0.0 or block.data.max() > 1.0):
                raise SystemMatrixError("weights must lie in [0, 1]")
        nnz_per_row = np.diff(self.B.indptr) + np.diff(self.P.indptr)
        if self.M and not np.all(nnz_per_row == self.m + 1):
            raise SystemMatrixError("each sensor row must hold exactly m+1 weights")
        if self.M and np.max(np.abs(self.row_sums() - 1.0)) > 1e-12:
            raise SystemMatrixError("sensor rows must sum to one")
        return self


@dataclass(frozen=True)
class AnchorBlock:
    """Fixed anchor coordinates, one row per anchor; never updated."""

    U: np.ndarray


def build_system_matrices(field, tris) -> SystemMatrices:
    """Scatter every sensor's barycentric weights into the B and P blocks."""
    m = field.m
    M = field.n_sensors
    rows_b, cols_b, vals_b = [], [], []
    rows_p, cols_p, vals_p = [], [], []
    for l in field.sensor_ids:
        if l not in tris:
            raise MissingTriangulationError(f"sensor {l} has no triangulation set")
        t = tris[l]
        row = l - (m + 2)
        for k, w in zip(t.weights.neighbor_ids, t.weights.weights):
            if k <= m + 1:
                rows_b.append(row)
                cols_b.append(k - 1)
                vals_b.append(float(w))
            else:
                rows_p.append(row)
                cols_p.append(k - (m + 2))
                vals_p.append(float(w))
    B = sp.csr_matrix((vals_b, (rows_b, cols_b)), shape=(M, m + 1))
    P = sp.csr_matrix((vals_p, (rows_p, cols_p)), shape=(M, M))
    return SystemMatrices(B, P, m).validate()


def _max_abs_eigenvalue(A: sp.csr_matrix) -> float:
    """Largest eigenvalue modulus of a nonzero square sparse matrix of either sign.

    ARPACK (``eigs``, k = 1) from a seeded positive start vector, so that
    repeated calls agree; it needs at least three rows, so smaller matrices
    take a dense eigensolve. ARPACK failures propagate.
    """
    n = A.shape[0]
    if n < 3:
        return float(np.max(np.abs(np.linalg.eigvals(A.toarray()))))
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, size=n)
    return float(np.abs(spla.eigs(A, k=1, which="LM", v0=v0, return_eigenvectors=False)).max())


def _solve_identity_minus(T: sp.csr_matrix, rhs: np.ndarray, rtol: float, what: str) -> np.ndarray:
    """(I - T)^-1 rhs by sparse LU, with its residual checked against ``rtol``."""
    A = (sp.identity(T.shape[0], format="csr") - T).tocsc()
    try:
        X = spla.splu(A).solve(rhs)
    except RuntimeError as exc:
        raise SingularSystemError(f"factorization of I - P failed: {exc}") from exc
    scale = max(1.0, float(np.abs(rhs).max()))
    residual = np.abs(A @ X - rhs).max()
    if not np.isfinite(X).all() or residual > rtol * scale:
        raise SingularSystemError(
            f"{what} residual {residual:.3e} too large; spectral radius is not below one"
        )
    return X


# sparse LU of an M-matrix without row exchanges: factors of fixed sign
_UNPIVOTED = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


def _perron_bracket(T: sp.csr_matrix, max_iters=50, threshold=None):
    """Collatz-Wielandt bracket lo <= rho(T) <= hi for a nonnegative square T.

    Links between strong components are dropped first: rho is the largest
    radius of the diagonal blocks, each irreducible or a single entry (so a
    nilpotent T gives [0, 0] at once). Then Noda's iteration solves
    (sigma I - T) y = y with sigma just above hi; the inverse is nonnegative
    and the unpivoted factors keep y positive, so max (T y)_i / y_i bounds
    rho from above and, per block, the minimum from below. Stops once
    hi - lo <= 1e-12 hi or the bracket lies on one side of ``threshold``.
    Returns (lo, hi, solves).
    """
    links = T.multiply(T > 0).tocoo()  # an explicit zero is no link
    blocks, label = connected_components(links, connection="strong")
    inner = label[links.row] == label[links.col]
    T = sp.csr_matrix((links.data[inner], (links.row[inner], links.col[inner])), shape=T.shape)
    lo, hi, y = 0.0, np.inf, np.ones(T.shape[0])
    for solves in range(max_iters + 1):
        if solves:
            y = spla.splu((sigma * sp.identity(T.shape[0]) - T).tocsc(), **_UNPIVOTED).solve(y)
            y = np.maximum(y / y.max(), np.finfo(float).tiny)
        ratio = (T @ y) / y
        block_min = np.full(blocks, np.inf)
        np.minimum.at(block_min, label, ratio)
        hi, lo = min(hi, float(ratio.max())), max(lo, float(block_min.max()))
        if hi - lo <= 1e-12 * hi or (threshold is not None and not lo < threshold <= hi):
            return lo, hi, solves
        sigma = hi * (1.0 + 2.0**-40)
    raise NoConvergenceError(0.5 * (lo + hi), max_iters, (lo, hi))


def spectral_radius(P, max_iters=50):
    """Largest eigenvalue modulus of a nonnegative square matrix.

    The midpoint of its Perron bracket once that closes to a relative 1e-12
    within ``max_iters`` solves; NoConvergenceError carries it otherwise.
    """
    A = sp.csr_matrix(P)
    if A.shape[0] != A.shape[1]:
        raise SystemMatrixError("matrix must be square")
    if A.shape[0] == 0:
        return 0.0
    if A.nnz and A.data.min() < 0.0:
        raise SystemMatrixError("matrix must be nonnegative")
    lo, hi, _ = _perron_bracket(A, max_iters)
    return 0.5 * (lo + hi)


def exact_locations_oracle(sys: SystemMatrices, anchors: AnchorBlock) -> np.ndarray:
    """Closed-form sensor positions (I - P)^-1 B U.

    One sparse LU factorization at every size; the residual is checked to
    well below the accuracy of anything this oracle validates.
    """
    U = np.asarray(anchors.U, dtype=float)
    if sys.M == 0:
        return np.zeros((0, U.shape[1]))
    return _solve_identity_minus(sys.P, sys.B @ U, 1e-10, "solve")


def absorbing_check(sys: SystemMatrices) -> bool:
    """True when every sensor reaches an anchor-connected row through P.

    Reachability makes the chain absorbing, which is exactly the condition
    for the iteration to forget its initial guess.
    """
    M = sys.M
    if M == 0:
        return True
    reach = np.asarray(np.diff(sys.B.indptr) > 0).ravel()
    P_bool = sys.P.astype(bool)
    while True:
        grown = reach | np.asarray((P_bool @ reach)).ravel()
        if np.array_equal(grown, reach):
            break
        reach = grown
    return bool(reach.all())
