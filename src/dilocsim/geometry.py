"""Distance-only computational geometry.

Everything in this module works from squared inter-node distances alone;
coordinates never enter. Generalized simplex volumes come from bordered
(Cayley-Menger) determinants, point-in-hull tests compare sub-simplex
volumes against the full volume, and barycentric coordinates are ratios
of those volumes.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Absolute volume tolerance, applied after rescaling the local point set to
# unit squared diameter. Below this a simplex counts as degenerate.
VOLUME_TOL = 1e-12
# Relative tolerance for the hull-inclusion volume comparison.
HULL_REL_TOL = 1e-9


class GeometryError(ValueError):
    """Base class for geometry input/consistency errors."""


class AsymmetricDistanceError(GeometryError):
    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"distance table asymmetric at ({i}, {j})")


class NegativeEntryError(GeometryError):
    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"negative squared distance at ({i}, {j})")


class NonzeroDiagonalError(GeometryError):
    def __init__(self, i):
        self.pair = (i, i)
        super().__init__(f"nonzero diagonal entry at ({i}, {i})")


class NotRealizableError(GeometryError):
    """Squared volume significantly negative: distances not embeddable."""


class DegenerateSimplexError(GeometryError):
    """Reference simplex has (numerically) zero volume."""


class OutsideHullError(GeometryError):
    """Point lies outside the convex hull of its would-be triangulation set."""


class HullVerdict(Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class DistanceMatrix:
    """Validated table of squared Euclidean distances over a node subset.

    ``ids[i]`` labels row/column ``i`` of ``sq_dist``. Entries are squared
    distances (length^2); the table is symmetric with a zero diagonal.
    """

    ids: tuple[int, ...]
    sq_dist: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ids)

    def index_of(self, node_id: int) -> int:
        try:
            return self.ids.index(node_id)
        except ValueError:
            raise KeyError(f"node {node_id} not in distance matrix") from None

    def restrict(self, ids) -> "DistanceMatrix":
        """Submatrix over ``ids``, rows/columns in the given order."""
        idx = np.array([self.index_of(i) for i in ids])
        return DistanceMatrix(tuple(ids), self.sq_dist[np.ix_(idx, idx)])

    @classmethod
    def from_points(cls, ids, coords) -> "DistanceMatrix":
        """Exact squared-distance table of a coordinate array (one row per id)."""
        pts = np.asarray(coords, dtype=float)
        diff = pts[:, None, :] - pts[None, :, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        sq = (sq + sq.T) / 2.0
        np.fill_diagonal(sq, 0.0)
        return cls(tuple(ids), sq)


@dataclass(frozen=True)
class Simplex:
    """m+1 vertices spanning an m-dimensional cell with generalized volume."""

    dim: int
    vertex_ids: tuple[int, ...]
    volume: float


@dataclass(frozen=True)
class BarycentricWeights:
    """Convex coefficients expressing one node in terms of m+1 neighbors."""

    sensor_id: int
    neighbor_ids: tuple[int, ...]
    weights: np.ndarray

    def as_dict(self) -> dict[int, float]:
        return {k: float(w) for k, w in zip(self.neighbor_ids, self.weights)}


def validate_distance_matrix(raw, ids=None) -> DistanceMatrix:
    """Validate a raw squared-distance table.

    Nothing is repaired silently: asymmetry, negative entries and nonzero
    diagonals are hard errors naming the offending index pair.
    """
    sq = np.asarray(raw, dtype=float)
    if sq.ndim != 2 or sq.shape[0] != sq.shape[1]:
        raise GeometryError(f"distance table must be square, got shape {sq.shape}")
    n = sq.shape[0]
    if ids is None:
        ids = tuple(range(n))
    else:
        ids = tuple(ids)
        if len(ids) != n:
            raise GeometryError("ids length does not match table size")
    for i in range(n):
        if sq[i, i] != 0.0:
            raise NonzeroDiagonalError(ids[i])
    bad = np.argwhere(sq != sq.T)
    if bad.size:
        i, j = bad[0]
        raise AsymmetricDistanceError(ids[i], ids[j])
    neg = np.argwhere(sq < 0.0)
    if neg.size:
        i, j = neg[0]
        raise NegativeEntryError(ids[i], ids[j])
    return DistanceMatrix(ids, sq)


def cayley_menger_determinant(d: DistanceMatrix) -> float:
    """Determinant of the bordered squared-distance matrix of all nodes in d.

    The body is the k x k squared-distance table, bordered by a row and
    column of ones with a zero corner. Evaluated by partially pivoted LU.
    """
    if d.n < 2:
        raise GeometryError("need at least 2 nodes for a bordered determinant")
    bordered = np.ones((d.n + 1, d.n + 1))
    bordered[0, 0] = 0.0
    bordered[1:, 1:] = d.sq_dist
    return float(np.linalg.det(bordered))


def cm_coefficient(m: int) -> float:
    """Proportionality constant c(m) with c(m) * A^2 = bordered determinant.

    For m+1 points spanning dimension m: c(m) = (-1)^(m+1) * 2^m * (m!)^2,
    so c(1) = 2, c(2) = -16, c(3) = 288.
    """
    if m < 1:
        raise GeometryError("dimension must be >= 1")
    return float((-1) ** (m + 1) * 2**m * math.factorial(m) ** 2)


_NOT_REALIZABLE = (
    "squared volume negative beyond tolerance; "
    "distances are not realizable in dimension {m}"
)


def _cm_volumes(tables: np.ndarray):
    """Cayley-Menger volumes of a stack of local squared-distance tables.

    ``tables`` has shape (K, m+2, m+2): point 0 is the sensor, points 1..m+1
    the vertices of its would-be hull set. Each table is divided by its
    largest entry (an all-zero table is left as it is), which makes
    VOLUME_TOL scale-free and leaves volume ratios unchanged.

    Volume j is that of the m+1 points other than point j: volume 0 is the
    base simplex, volume k+1 the simplex with vertex k replaced by the sensor
    (sensor first, then the remaining vertices in order). Returns the base
    volumes (K,), the replacement volumes (K, m+1) and flags (K, m+2) marking
    squared volumes below -VOLUME_TOL in units of their own sub-table's
    largest entry (distances not embeddable in R^m); those volumes read 0.
    """
    n = tables.shape[-1]
    m = n - 2
    scale = tables.max(axis=(1, 2))
    tables = tables / np.where(scale == 0.0, 1.0, scale)[:, None, None]
    keep = np.array([[j for j in range(n) if j != i] for i in range(n)])
    subs = tables[:, keep[:, :, None], keep[:, None, :]]  # (K, m+2, m+1, m+1)
    bordered = np.ones(subs.shape[:2] + (n, n))
    bordered[..., 0, 0] = 0.0
    bordered[..., 1:, 1:] = subs
    sq_vol = np.linalg.det(bordered) / cm_coefficient(m)
    sub_scale = subs.max(axis=(2, 3))
    spans = sub_scale > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = spans & (sq_vol / sub_scale**m < -VOLUME_TOL)
    vol = np.where(spans, np.sqrt(np.clip(sq_vol, 0.0, None)), 0.0)
    return vol[:, 0], vol[:, 1:], bad


def generalized_volume(d: DistanceMatrix, m: int) -> float:
    """Volume (length^m) of the simplex on the m+1 nodes of ``d``."""
    if d.n != m + 1:
        raise GeometryError(f"need exactly {m + 1} nodes for dimension {m}, got {d.n}")
    # node 0 doubles as the sensor; only the base volume is read
    idx = [0] + list(range(m + 1))
    base, _, bad = _cm_volumes(d.sq_dist[np.ix_(idx, idx)][None])
    if bad[0, 0]:
        raise NotRealizableError(_NOT_REALIZABLE.format(m=m))
    return float(base[0]) * float(d.sq_dist.max()) ** (m / 2)


def simplex_from_distances(vertex_ids, d: DistanceMatrix, m: int) -> Simplex:
    vol = generalized_volume(d.restrict(vertex_ids), m)
    return Simplex(m, tuple(vertex_ids), vol)


def _local_volumes(l: int, kappa, d: DistanceMatrix, m: int):
    """Normalized base and vertex-replacement volumes of ``l`` against ``kappa``."""
    kappa = list(kappa)
    if len(kappa) != m + 1:
        raise GeometryError(f"hull set must have {m + 1} nodes, got {len(kappa)}")
    if l in kappa:
        raise GeometryError(f"node {l} cannot be a vertex of its own hull set")
    sq = d.restrict([l] + kappa).sq_dist
    if float(sq.max()) == 0.0:
        raise DegenerateSimplexError("all nodes coincide")
    base, subs, bad = _cm_volumes(sq[None])
    if bad.any():
        raise NotRealizableError(_NOT_REALIZABLE.format(m=m))
    return float(base[0]), subs[0]


def convex_hull_inclusion(l: int, kappa, d: DistanceMatrix, m: int) -> HullVerdict:
    """Locate node ``l`` relative to the hull of the m+1 nodes in ``kappa``.

    The point is inside exactly when the vertex-replacement volumes add up
    to the base volume; any excess means it is outside, and a vanishing
    sub-volume on an otherwise matching sum means it sits on a face.
    """
    base, subs = _local_volumes(l, kappa, d, m)
    if base <= VOLUME_TOL:
        raise DegenerateSimplexError(
            f"hull set {tuple(kappa)} spans no volume in dimension {m}"
        )
    if subs.sum() > base * (1.0 + HULL_REL_TOL):
        return HullVerdict.OUTSIDE
    if subs.min() > VOLUME_TOL:
        return HullVerdict.INSIDE
    return HullVerdict.BOUNDARY


def barycentric_coordinates(l: int, theta, d: DistanceMatrix, m: int) -> BarycentricWeights:
    """Barycentric coordinates of ``l`` with respect to the m+1 nodes ``theta``.

    Weight k is the volume of theta with vertex k swapped for l, divided by
    the volume of theta itself. Requires l inside or on the boundary of the
    hull; weights are renormalized to unit sum to absorb rounding.
    """
    base, subs = _local_volumes(l, theta, d, m)
    if base <= VOLUME_TOL:
        raise DegenerateSimplexError(
            f"triangulation set {tuple(theta)} spans no volume in dimension {m}"
        )
    if subs.sum() > base * (1.0 + HULL_REL_TOL):
        raise OutsideHullError(
            f"node {l} lies outside the hull of {tuple(theta)}"
        )
    weights = subs / base
    weights = weights / weights.sum()
    return BarycentricWeights(l, tuple(theta), weights)


def batch_strict_inclusion(
    sq_cand: np.ndarray, sq_to_l: np.ndarray, combos: np.ndarray, m: int
) -> np.ndarray:
    """Strict-interior flags of node l against many candidate (m+1)-subsets.

    sq_cand: (n, n) squared distances among candidate nodes.
    sq_to_l: (n,) squared distances from l to each candidate.
    combos:  (K, m+1) integer index rows into the candidate arrays.

    Returns a boolean array of length K, True where l is strictly inside the
    subset's hull: the verdict INSIDE of convex_hull_inclusion, with subsets
    it would reject as degenerate or not realizable counted as not inside.
    """
    combos = np.asarray(combos)
    if combos.size == 0:
        return np.zeros(0, dtype=bool)
    tl = sq_to_l[combos]
    tables = np.empty((combos.shape[0], m + 2, m + 2))
    tables[:, 0, 0] = 0.0
    tables[:, 0, 1:] = tl
    tables[:, 1:, 0] = tl
    tables[:, 1:, 1:] = sq_cand[combos[:, :, None], combos[:, None, :]]
    # a flagged volume reads 0, which already fails the tests below
    base, subs, _ = _cm_volumes(tables)
    ok_base = base > VOLUME_TOL
    ok_sum = subs.sum(axis=1) <= base * (1.0 + HULL_REL_TOL)
    ok_subs = subs.min(axis=1) > VOLUME_TOL
    return ok_base & ok_sum & ok_subs
