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


class SystemMatrixError(ValueError):
    """Base class for system construction/solve errors."""


class MissingTriangulationError(SystemMatrixError):
    pass


class SingularSystemError(SystemMatrixError):
    """I - P not invertible to working precision: chain is not absorbing."""


class NoConvergenceError(SystemMatrixError):
    """Spectral radius iteration hit its cap; carries the best estimate."""

    def __init__(self, estimate: float, iterations: int):
        self.estimate = float(estimate)
        self.iterations = int(iterations)
        super().__init__(
            f"power iteration did not converge in {iterations} iterations; "
            f"best estimate {estimate:.12g}"
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


def _max_abs_eigenvalue(A: sp.csr_matrix, v0: np.ndarray | None = None) -> float:
    """Largest eigenvalue modulus of a square sparse matrix.

    ARPACK (``eigs``, k = 1) from ``v0``, or from a seeded positive vector so
    that repeated calls agree; it needs at least three rows and a nonzero
    matrix, so smaller matrices take a dense eigensolve. ARPACK failures
    propagate.
    """
    n = A.shape[0]
    if not A.data.any():
        return 0.0
    if n < 3:
        return float(np.max(np.abs(np.linalg.eigvals(A.toarray()))))
    if v0 is None:
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


def _perron_bound(N: sp.csr_matrix) -> float:
    """An upper bound on rho(N) for a nonnegative square N, below one iff rho(N) is.

    Collatz-Wielandt: rho(N) <= max_i (N y)_i / y_i for every positive y. With
    rho(N) < 1, y = (I - N)^-1 1 = sum_k N^k 1 >= 1 gives 1 - 1/max(y); for a
    substochastic N that is one over the longest expected time to absorption.
    Infinite when that solve fails or y is not positive.
    """
    try:
        # any positive y gives a valid bound, so only a non-finite solve is rejected
        y = _solve_identity_minus(N, np.ones(N.shape[0]), np.inf, "bound")
    except SingularSystemError:
        return np.inf
    return float(np.max((N @ y) / y)) if y.min() > 0.0 else np.inf


def spectral_radius(P, tol=1e-10, max_iters=10_000, seed=0):
    """Largest eigenvalue modulus of a nonnegative square matrix.

    Power iteration from a seeded positive start vector; if the norm-ratio
    estimate has not settled at the cap (periodic or slowly mixing chains)
    ARPACK takes over, warm-started from the last power vector. Only if
    ARPACK fails too does NoConvergenceError report the power estimate.
    """
    A = sp.csr_matrix(P) if not sp.issparse(P) else P.tocsr()
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise SystemMatrixError("matrix must be square")
    if n == 0 or A.nnz == 0:
        return 0.0
    if A.data.min() < 0.0:
        raise SystemMatrixError("matrix must be nonnegative")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 1.5, size=n)
    x /= np.linalg.norm(x)
    y = A @ x
    lam = 0.0
    for _ in range(max_iters):
        lam = float(np.linalg.norm(y))
        if lam == 0.0:
            return 0.0
        x = y / lam
        # A @ x is both this step's residual term and the next step's product;
        # converged when x is an eigenvector to working precision
        y = A @ x
        residual = float(np.linalg.norm(y - lam * x))
        if residual <= tol * max(lam, 1e-30):
            return lam
    try:
        return _max_abs_eigenvalue(A, v0=x)
    except spla.ArpackNoConvergence as exc:
        raise NoConvergenceError(lam, max_iters) from exc


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
