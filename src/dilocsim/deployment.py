"""Sensor fields and the triangulation set-up phase.

A field holds m+1 anchors with known coordinates and M sensors whose true
coordinates exist only behind an oracle accessor; the localization protocol
sees node ids, anchor coordinates and measured inter-node distances, nothing
else. The set-up phase grows a per-sensor radius until some m+1 neighbors
strictly contain the sensor in their hull, which fixes its barycentric
weights. Poisson deployment utilities quantify how large that radius must be.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    HULL_REL_TOL,
    VOLUME_TOL,
    BarycentricWeights,
    DistanceMatrix,
    barycentric_coordinates,  # noqa: F401  (bench/meter.py wraps it in this module too)
    batch_strict_inclusion,
)

_FIELD_STREAM = 101  # seed-stream tag for field generation

# Relative slack when checking that generated/loaded sensors sit strictly
# inside the anchor hull (assumption: the iteration chain needs anchors on
# the outside of everything it must absorb).
_INTERIOR_TOL = 1e-12


class DeploymentError(ValueError):
    pass


class DegenerateAnchorsError(DeploymentError):
    """Anchor simplex spans no volume: localization dimension is ill-posed."""


class DivergedError(DeploymentError):
    """Triangulation radius grew past every node without success."""


class UnsupportedDimensionError(DeploymentError):
    pass


class FieldLoadError(DeploymentError):
    pass


class SensorField:
    """Anchors, sensors and the distance oracle of one deployment.

    Node ids are 1-based: anchors are 1..m+1, sensors m+2..N. True sensor
    coordinates are oracle-only (verification, error reporting); protocol
    code must restrict itself to ids, anchor coordinates and distances.
    """

    def __init__(self, m, anchor_coords, sensor_coords, density=None, validate=True):
        self.m = int(m)
        self.anchor_coords = np.asarray(anchor_coords, dtype=float)
        self._sensor_coords = np.asarray(sensor_coords, dtype=float).reshape(-1, self.m)
        self.density = density
        if self.anchor_coords.shape != (self.m + 1, self.m):
            raise DeploymentError(
                f"need {self.m + 1} anchors with {self.m} coordinates each, "
                f"got shape {self.anchor_coords.shape}"
            )
        self._all_coords = np.vstack([self.anchor_coords, self._sensor_coords])
        if validate:
            self._check_invariants()

    # -- structure ---------------------------------------------------------

    @property
    def n_anchors(self) -> int:
        return self.m + 1

    @property
    def n_sensors(self) -> int:
        return self._sensor_coords.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.n_anchors + self.n_sensors

    @property
    def anchor_ids(self) -> range:
        return range(1, self.m + 2)

    @property
    def sensor_ids(self) -> range:
        return range(self.m + 2, self.n_nodes + 1)

    def _check_invariants(self):
        _simplex_volume(self.anchor_coords, self.m)
        if self.n_sensors:
            w = self._anchor_barycentric(self._sensor_coords)
            if w.min() <= _INTERIOR_TOL:
                bad = int(np.argmin(w.min(axis=1)))
                raise DeploymentError(
                    f"sensor {self.m + 2 + bad} is not strictly inside the anchor hull"
                )

    def _anchor_barycentric(self, pts):
        """Barycentric weights of coordinate rows w.r.t. the anchors (oracle side)."""
        a = np.vstack([self.anchor_coords.T, np.ones(self.m + 1)])
        rhs = np.vstack([np.asarray(pts, dtype=float).T, np.ones(len(pts))])
        return np.linalg.solve(a, rhs).T

    # -- oracle-only surface ------------------------------------------------

    def true_coords(self, node_id: int) -> np.ndarray:
        """True position of any node. Oracle access: not for protocol code."""
        return self._all_coords[self._row(node_id)].copy()

    def true_sensor_matrix(self) -> np.ndarray:
        """All true sensor positions, row per sensor. Oracle access only."""
        return self._sensor_coords.copy()

    # -- protocol-visible surface -------------------------------------------

    def anchor_block(self) -> np.ndarray:
        """Anchor coordinate rows (public knowledge, broadcast by anchors)."""
        return self.anchor_coords.copy()

    def _row(self, node_id: int) -> int:
        if not 1 <= node_id <= self.n_nodes:
            raise KeyError(f"node id {node_id} out of range 1..{self.n_nodes}")
        return node_id - 1

    def sq_distances_from(self, node_id: int) -> np.ndarray:
        """Measured squared distances from one node to all nodes, id order."""
        diff = self._all_coords - self._all_coords[self._row(node_id)]
        return np.einsum("ij,ij->i", diff, diff)

    def distance_submatrix(self, ids) -> DistanceMatrix:
        """Measured squared-distance table over a node subset."""
        rows = np.array([self._row(i) for i in ids])
        pts = self._all_coords[rows]
        return DistanceMatrix.from_points(tuple(ids), pts)


@dataclass(frozen=True)
class TriangulationSet:
    """One sensor's m+1 triangulating neighbors and its barycentric weights."""

    sensor_id: int
    radius: float
    neighbor_ids: tuple[int, ...]
    weights: BarycentricWeights

    @property
    def comm_radius(self) -> float:
        # every pair inside the triangulated cell is within twice the radius
        return 2.0 * self.radius


def generate_poisson_field(m, gamma, anchor_simplex, seed) -> SensorField:
    """Poisson-deployed field: count ~ Poisson(gamma * volume), uniform spread.

    Uniformity over the anchor simplex uses normalized exponential spacings,
    which is exact and rejection-free. Deterministic for a given seed.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise DeploymentError("deployment density must be finite and positive")
    anchors = np.asarray(anchor_simplex, dtype=float)
    volume = _simplex_volume(anchors, m)
    rng = np.random.default_rng([_u64(seed), _FIELD_STREAM])
    count = int(rng.poisson(gamma * volume))
    spacings = rng.exponential(size=(count, m + 1))
    weights = spacings / spacings.sum(axis=1, keepdims=True)
    sensors = weights @ anchors
    return SensorField(m, anchors, sensors, density=gamma)


def _simplex_volume(anchors: np.ndarray, m: int) -> float:
    """Volume of the anchor simplex; DeploymentError unless it has m+1 points
    in dimension m, DegenerateAnchorsError when it is flat (volume at most
    1e-12 of its diameter to the m-th power)."""
    if anchors.shape != (m + 1, m):
        raise DeploymentError(f"anchor simplex must be ({m + 1}, {m}), got {anchors.shape}")
    volume = abs(np.linalg.det(anchors[1:] - anchors[0])) / math.factorial(m)
    diff = anchors[:, None, :] - anchors[None, :, :]
    diam_sq = float(np.einsum("ijk,ijk->ij", diff, diff).max())
    if diam_sq == 0.0 or volume / diam_sq ** (m / 2.0) <= 1e-12:
        raise DegenerateAnchorsError("anchors lie on a hyperplane")
    return volume


def _u64(seed) -> int:
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def _default_r0(field: SensorField) -> float:
    if field.density:
        return field.density ** (-1.0 / field.m) / 2.0
    # explicit fields: half the median nearest-neighbor distance
    nn = []
    for l in field.sensor_ids:
        sq = field.sq_distances_from(l)
        sq[l - 1] = np.inf
        nn.append(math.sqrt(sq.min()))
    if not nn:
        raise DeploymentError("field has no sensors")
    return float(np.median(nn)) / 2.0


def _local_frame(sq_cand: np.ndarray, sq_to_l: np.ndarray, m: int):
    """Coordinates of the candidates relative to sensor l, from distances alone.

    Pivoted Cholesky of the l-centred Gram matrix
    G_ab = (|la|^2 + |lb|^2 - |ab|^2) / 2, stopped after m pivots: an exact
    isometric image of the vectors from l when the distances are exact.
    Returns the (n, m) coordinates and a bound on the error of any m x m
    determinant of their rows. Entries of G err by at most ~24 u R^2 (u the
    machine epsilon, R the farthest candidate), coordinate j amplifies that by 3 R / h_j for pivot
    length h_j, and a determinant of entries up to R adds m m! R^(m-1) per
    unit of coordinate error; the bound takes a 100-fold margin on that
    product and is infinite when the candidates and l span fewer than m
    dimensions, so a degenerate frame prunes nothing.
    """
    coords = np.zeros((sq_to_l.size, m))
    resid = sq_to_l.copy()
    r = math.sqrt(float(sq_to_l.max()))
    amplification = 1.0
    for j in range(m):
        p = int(np.argmax(resid))
        h_sq = float(resid[p])
        if not h_sq > 0.0:
            return coords, math.inf
        col = (sq_to_l + sq_to_l[p] - sq_cand[:, p]) / 2.0 - coords[:, :j] @ coords[p, :j]
        coords[:, j] = col / math.sqrt(h_sq)
        resid = resid - coords[:, j] ** 2
        amplification *= 3.0 * r / math.sqrt(h_sq)
    eps = np.finfo(float).eps
    return coords, 2400.0 * m * math.factorial(m) * eps * r**m * amplification


def _slack(sq_diam, sq_reach: float, m: int, frame_err: float):
    """Largest signed sub-volume determinant of a subset the kernel may accept
    with the opposite sign, for subsets of squared diameter ``sq_diam``.

    Let V_a be the exact normalized volume of the subset with vertex a
    replaced by l, V their signed sum (the base volume, at most 1 for unit
    diameter) and mu the sum of |V_a| over the sign that V does not have.
    Then sum |V_a| = |V| + 2 mu. The kernel's computed volumes are square
    roots of rounded squared volumes of entries scaled to at most 1, whose
    rounding (a few ulps, ~1e-15) moves a root by at most ~1e-7; the
    allowance e = sqrt(VOLUME_TOL) = 1e-6 covers that tenfold. Acceptance
    needs sum of computed subs <= (1 + HULL_REL_TOL) * computed base, so
    |V| + 2 mu - (m+1) e <= (1 + HULL_REL_TOL)(|V| + e), that is
    mu <= eta = (HULL_REL_TOL + (m+3) e) / 2. Normalization divides volumes
    by scale^(m/2), scale being the largest squared distance among the
    subset and l, at most max(sq_diam, sq_reach). A frame determinant of m
    direction vectors is m! times a signed sub-volume, plus ``frame_err``.
    So a subset with one determinant above the slack and another below its
    negative has mu >= 2 eta and the kernel rejects it.
    """
    eta = (HULL_REL_TOL + (m + 3) * math.sqrt(VOLUME_TOL)) / 2.0
    scale = np.maximum(sq_diam, sq_reach)
    return 2.0 * math.factorial(m) * eta * scale ** (m / 2.0) + frame_err


def _det(x: np.ndarray) -> np.ndarray:
    """Determinants of stacked square matrices of size 0 to 3, in closed form
    (set-up runs in dimensions 1 to 3 only)."""
    k = x.shape[-1]
    if k == 0:
        return np.ones(x.shape[:-2])
    if k == 1:
        return x[..., 0, 0]
    if k == 2:
        return x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]
    # 3 x 3: expansion along the first row
    return (
        x[..., 0, 0] * _det(x[..., 1:, 1:])
        - x[..., 0, 1] * _det(x[..., 1:, ::2])
        + x[..., 0, 2] * _det(x[..., 1:, :2])
    )


@functools.lru_cache(maxsize=None)
def _cofactor_layout(m: int):
    """Index table and signs of the (m-1) x (m-1) minors of an m x m matrix.

    Built once per dimension; read-only, since every caller shares them.
    """
    others = np.array([np.delete(np.arange(m), i) for i in range(m)]).reshape(m, m - 1)
    sign = (-1.0) ** np.add.outer(np.arange(m), np.arange(m))
    others.flags.writeable = sign.flags.writeable = False
    return others, sign


def _surrounds(coords: np.ndarray, verts: np.ndarray, s: np.ndarray, q: np.ndarray, slack):
    """Prefilter: whether subsets (verts[s], q) surround l within slack.

    ``verts`` (S, m) holds vertex rows of ``coords``; each subset adds a
    last vertex q to state s and has its own ``slack``. The signed
    sub-volume determinants of a subset are -det(A) and (adj(A) q)_a for
    A = coords[verts[s]].T: by Cramer's
    rule, replacing column a of A by q gives (adj(A) q)_a. l lies inside
    exactly when they share one sign; a subset passes when all are >= -slack
    or all are <= slack.
    """
    others, sign = _cofactor_layout(coords.shape[1])
    a = coords[verts].transpose(0, 2, 1)
    # minors[:, j, i] drops row j and column i; adj[i, j] is its signed determinant
    minors = a[:, others[:, None, :, None], others[None, :, None, :]]
    adj = sign * _det(minors).transpose(0, 2, 1)
    vals = np.einsum("kij,kj->ki", adj[s], coords[q])
    base, tol = -_det(a)[s], slack
    low, high = base >= -tol, base <= tol
    for i in range(vals.shape[1]):
        low &= vals[:, i] >= -tol
        high &= vals[:, i] <= tol
    return low | high


def _planar_round(coords: np.ndarray, slack: float):
    """One planar round's angle sort: None when no triangle can surround l.

    ``slack`` bounds the slack of every subset in the round. Candidate v has
    angular slack A_v, sin(A_v) = 1.001 slack / (|v| r_min) + 1e-12 (r_min:
    the nearest candidate; the factor absorbs rounding differences from the
    prefilter's own products).

    Skip: when the directions from l fit in a cone narrower than pi (l is
    outside the candidates' hull), a triangle (a, b, c) in cone order passes
    only if det(a, c) <= slack, or det(a, b) and det(b, c) both are. Such
    near pairs lie within A_v of one direction or of its opposite, so a
    window search on the sorted angles finds them, and the round is hopeless
    when none has a candidate between its ends and no two are chained.

    Otherwise returns ``(arcs, by_angle)``: ``arcs(ei, ej, edge_slack)``
    gives, per edge, (wide, lo, count), and the candidates that may complete
    edge (ei, ej) to a triangle surrounding l -- a superset of those passing
    ``_surrounds`` -- are by_angle[(lo + i) % n] for 0 <= i < count, or any
    candidate where ``wide`` is set. With the edge (a, b) counter-clockwise
    about l, det(a, b) > edge_slack and angle phi from a to b, a third vertex
    k passes only if det(b, k) and det(k, a) are >= -edge_slack, which puts
    its direction in the arc from angle(a) + pi - A_a to angle(b) + pi + A_b.
    Edges where that fails to hold -- det(a, b) within the slack, A_v
    undefined, or phi <= A_a + A_b, where a second arc opens -- are wide.
    Each arc end depends on one vertex, so it is placed once per round.
    """
    n = coords.shape[0]
    tol = 1.001 * slack
    theta = np.arctan2(coords[:, 1], coords[:, 0])
    by_angle = np.argsort(theta, kind="stable")
    th = theta[by_angle]
    th2 = np.concatenate([th, th + 2.0 * math.pi])
    r = np.hypot(coords[:, 0], coords[:, 1])
    with np.errstate(divide="ignore"):  # a candidate at l itself: every edge is wide
        sin_v = tol / (r * r.min()) + 1e-12
    wide_v = sin_v >= 1.0
    ang = np.arcsin(np.minimum(sin_v, 1.0)) + 1e-9
    gaps = np.diff(th2[: n + 1])
    g = int(np.argmax(gaps))
    if math.isfinite(tol) and gaps[g] > math.pi + 1e-9:
        # the cone in angle order, from the far side of its widest gap
        pos = np.arange(n)
        cone = th2[(g + 1) % n :][:n]
        order = by_angle[(pos + g + 1) % n]
        near_end = np.maximum(np.searchsorted(cone, cone + ang[order], side="right"), pos + 1)
        far_start = np.maximum(np.searchsorted(cone, cone + math.pi - ang[order], side="left"), near_end)
        counts = (near_end - pos - 1) + (n - far_start)
        if counts.sum() <= 16 * n:
            first = np.repeat(pos, counts)
            k = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
            n_near = np.repeat(near_end - pos - 1, counts)
            second = np.where(k < n_near, first + 1 + k, np.repeat(far_start, counts) + k - n_near)
            a, b = coords[order[first]], coords[order[second]]
            near = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] <= tol
            chained = np.zeros(n + 1, dtype=bool)
            chained[first[near]] = True
            if not ((second[near] - first[near] >= 2).any() or (chained[:-1] & chained[1:]).any()):
                return None
    begin = th[0] + np.mod(theta + math.pi - ang - th[0], 2.0 * math.pi)
    end = th[0] + np.mod(theta + math.pi + ang - th[0], 2.0 * math.pi)
    lo_v = np.searchsorted(th2, begin, side="left")
    hi_v = np.searchsorted(th2, end, side="right")

    def arcs(ei: np.ndarray, ej: np.ndarray, edge_slack):
        det = coords[ei, 0] * coords[ej, 1] - coords[ei, 1] * coords[ej, 0]
        a, b = np.where(det >= 0.0, ei, ej), np.where(det >= 0.0, ej, ei)
        phi = np.mod(theta[b] - theta[a], 2.0 * math.pi)
        wide = (
            (np.abs(det) <= edge_slack) | wide_v[a] | wide_v[b]
            | (phi <= ang[a] + ang[b]) | (phi >= math.pi)
        )
        lo = lo_v[a]
        # an arc that passes angle th[0] + 2 pi ends in the second copy of th
        hi = np.minimum(hi_v[b] + n * (end[b] < begin[a]), lo + n)
        return wide, lo, hi - lo

    return arcs, by_angle


def _pivots(coords: np.ndarray, frame_err: float) -> np.ndarray:
    """Pivots of a 3-D round: the candidates in a closed half-space through
    l, widened so that every subset the kernel accepts has one; none when
    the round can be skipped.

    Every simplex that strictly contains l has a vertex in every closed
    half-space through l (Tukey's halfspace depth). H = {x : u.x >= -w} for
    a unit vector u, taken as the one whose H holds the fewest candidates
    among the directions away from each candidate and away from the point
    of the candidates' hull nearest l; when l lies outside that hull by
    more than w, the latter holds none.

    With vertices p_i and l's barycentric weights b_i, sum b_i (u.p_i) = 0;
    if every u.p_i < -w, the negative weights sum to at least w / R (R: the
    farthest candidate). The widening w = 1e-3 R (plus frame_err / r_min^2
    for the frame's own error, r_min the nearest candidate) makes that
    margin 1e-3: the kernel accepts such a subset only if the rounding of
    its volumes (squared volumes within about 1e-14, as ``_slack`` takes
    them) covers 2e-3 of its normalized volume V, which needs V below
    about 4e-6, a subset flat with l at the kernel's resolution, whose
    verdict is noise.
    """
    n = coords.shape[0]
    r = np.sqrt(np.einsum("ij,ij->i", coords, coords))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1e-3 * float(r.max()) + frame_err / float(r.min()) ** 2
    if not math.isfinite(w):  # a degenerate frame or a candidate at l: every candidate
        return np.arange(n)
    # imported here: scipy.optimize adds about 0.13 s to every start-up, and only 3-D set-up needs it
    from scipy.optimize import nnls

    # the hull's nearest point: nonnegative weights, their sum held at 1 by a heavy last row
    heavy = 100.0 * float(r.max())
    try:
        weights = nnls(np.vstack([coords.T, np.full(n, heavy)]), np.append(np.zeros(3), heavy))[0]
    except RuntimeError:  # no convergence: the directions away from the candidates remain
        weights = np.zeros(n)
    near = weights @ coords
    norm = math.sqrt(float(near @ near))
    away = -coords / r[:, None]
    if norm > 0.0:
        away = np.vstack([-near / norm, away])
    inside = away @ coords.T >= -w
    return np.flatnonzero(inside[int(np.argmin(inside.sum(axis=1)))])


_PAIR_BUDGET = 1 << 19  # work items per batch of the set-up walk
_KERNEL_BATCH = 1 << 12  # subsets per inclusion-kernel call
_SETUP_BYTES = 1 << 31  # most bytes one set-up round may hold: past it, DeploymentError


def _round_bytes(n_c: int, m: int) -> int:
    """Most bytes the arrays of one set-up round over n_c candidates hold at once.

    Building the distance table holds 8 (m + 1) n_c^2. The pair walk
    (m = 1, 2) holds 8 n_c^2 + 56 n_c^2 / 2 while it sorts the pairs; the 3-D
    walk at most 96 n_c^2 in the table, the pair table and the pivots'
    candidate lists, with every candidate a pivot. A batch adds at most
    1 KiB per work item (_PAIR_BUDGET third vertices and 2^16 edges in the
    plane, _PAIR_BUDGET // 8 subsets in 3-D) and 4 KiB per subset of a
    kernel call (_KERNEL_BATCH).
    """
    batch = _PAIR_BUDGET // 8 if m == 3 else _PAIR_BUDGET + (1 << 16)
    return (96 if m == 3 else 36) * n_c * n_c + 1024 * batch + 4096 * _KERNEL_BATCH


def _check_round_bytes(l: int, radius: float, n_c: int, m: int):
    need = _round_bytes(n_c, m)
    if need > _SETUP_BYTES:
        raise DeploymentError(
            f"sensor {l}: the set-up round at radius {radius:.6g} over {n_c} candidates "
            f"needs up to {need} bytes, past the budget of {_SETUP_BYTES}"
        )


def _tie_end(length: np.ndarray, i: int) -> int:
    """Smallest index >= i (capped at the end) that does not split a run of equal lengths."""
    i = min(i, length.size)
    while i < length.size and length[i] == length[i - 1]:
        i += 1
    return i


class _Search:
    """The set-up search of sensor l.

    Candidates are the other nodes in order of distance from l, sorted once
    (ties in any order: they fall in the same round, and the search is keyed
    by ids and values), so every round's candidates are a prefix of that
    order. Nothing else carries over: each round builds its own distance
    table and pair order from that prefix. Directions come from
    ``_local_frame``, so the search reads squared distances only.
    """

    def __init__(self, field: SensorField, l: int):
        if field.m > 3:
            raise UnsupportedDimensionError(f"set-up is defined for dimensions 1 to 3, not {field.m}")
        self.m = field.m
        row = field.sq_distances_from(l)
        row[l - 1] = np.inf  # l is not its own candidate: it sorts last
        order = np.argsort(row)[:-1]
        self.ids = order + 1
        self.sq_to_l = row[order]
        self._pts = field._all_coords[order]

    def count(self, radius: float) -> int:
        """Number of candidates strictly within ``radius``."""
        return int(np.searchsorted(self.sq_to_l, radius * radius, side="left"))

    def first_inside(self, n_c: int, n_old: int = 0):
        """First strictly containing (m+1)-subset of the first n_c candidates
        and l's barycentric weights in it, or None.

        Candidate subsets are ordered by (max pairwise distance, lexicographic
        ids): tight cells first, deterministic throughout. Only subsets
        holding a candidate of index n_old or more count, since every other
        one failed in an earlier round, and only those whose directions from
        l surround it within the slack of ``_slack`` reach the kernel; the
        rest provably fail it. A round in which no subset can surround l (in
        3-D: in which ``_pivots`` finds none) is skipped whole. The kernel
        pass that accepts the subset also gives the weights, from the same
        volumes.

        m = 1 and 2 walk candidate pairs by length, a block at a time that
        never splits a run of equal lengths; each pair closes the subsets in
        which it is a longest edge, and each block's subsets are sorted. In
        the plane, one angle sort (``_planar_round``) decides the skip and
        gives each edge's third vertices, the arc opposite it. In 3-D the
        walk runs through the pivots of ``_pivots`` (``_pivot_walk``).

        Each call builds its own n_c x n_c squared-distance table; its
        arrays stay within ``_round_bytes(n_c, m)``.
        """
        m, pts, sq_to_l = self.m, self._pts[:n_c], self.sq_to_l[:n_c]
        diffs = np.empty((n_c, n_c, m))
        for k in range(m):  # a coordinate at a time: broadcasting over a short last axis is slow
            np.subtract.outer(pts[:, k], pts[:, k], out=diffs[:, :, k])
        # einsum's own order of addition: a plain sum of squares rounds some 3-D entries differently
        sq_cand = np.einsum("ijk,ijk->ij", diffs, diffs)
        del diffs
        coords, frame_err = _local_frame(sq_cand, sq_to_l, m)
        sq_reach = float(sq_to_l[-1])
        if m == 3:
            pivots = _pivots(coords, frame_err)
            if not pivots.size:
                return None
            return self._pivot_walk(sq_cand, coords, pivots, n_old, sq_reach, frame_err)
        round_slack = float(_slack(sq_cand.max(), sq_reach, m, frame_err))
        if m == 1:
            x, tol = coords[:, 0], 1.001 * round_slack
            if (x > tol).all() or (x < -tol).all():  # l lies beyond every candidate
                return None
        else:
            planar = _planar_round(coords, round_slack)
            if planar is None:
                return None
            arcs, by_angle = planar
            dist = np.sqrt(sq_to_l)
        first, second = np.triu_indices(n_c, 1)
        length = sq_cand[first, second]
        by_length = np.argsort(length)
        first, second, length = first[by_length], second[by_length], length[by_length]
        del by_length
        # batches double from 64 pairs, up to 2^16 planar edges (each batch
        # then cut at _PAIR_BUDGET third vertices) or _PAIR_BUDGET / n_c pairs on a line
        cap = max(16, 1 << 16 if m == 2 else _PAIR_BUDGET // n_c)
        start, batch = 0, min(64, cap)
        while start < length.size:
            stop = _tie_end(length, start + batch)
            ei, ej, diam = first[start:stop], second[start:stop], length[start:stop]
            slack = _slack(diam, sq_reach, m, frame_err)
            fresh = ej >= n_old  # whether a state holds a new candidate; ei < ej
            if m == 1:
                verts, s, q = ei[:, None], np.arange(ei.size), ej
            else:
                verts = np.stack([ei, ej], axis=1)
                wide, lo, count = arcs(ei, ej, slack)
                # a wide edge's third vertex lies within sqrt(diam) of both
                # ends, so it is no farther from l than the nearer end plus
                # sqrt(diam) (up to rounding), and it is new if both ends are old
                w = np.flatnonzero(wide)
                lo[w] = np.where(fresh[w], 0, n_old)
                reach = (np.minimum(dist[ei[w]], dist[ej[w]]) + np.sqrt(diam[w])) * (1.0 + 1e-9)
                count[w] = np.maximum(np.searchsorted(dist, reach, side="right") - lo[w], 0)
                total = np.cumsum(count)
                if total[-1] > _PAIR_BUDGET:
                    # leave the edges past the budget to the next batch
                    stop = _tie_end(length, start + int(np.searchsorted(total, _PAIR_BUDGET)) + 1)
                    cut = stop - start
                    ei, ej, diam, slack, verts, fresh = (x[:cut] for x in (ei, ej, diam, slack, verts, fresh))
                    wide, lo, count, total = wide[:cut], lo[:cut], count[:cut], total[:cut]
                s = np.repeat(np.arange(count.size), count)
                k = lo[s] + np.arange(s.size) - np.repeat(total - count, count)
                q = np.where(wide[s], k, by_angle[k % n_c])
                ok = (sq_cand[ei[s], q] <= diam[s]) & (sq_cand[ej[s], q] <= diam[s])
                ok &= (q != ei[s]) & (q != ej[s])
                s, q = s[ok], q[ok]
            start, batch = stop, min(2 * batch, cap)
            keep = fresh[s] | (q >= n_old)
            if not keep.any():
                continue
            states, s = np.unique(s[keep], return_inverse=True)
            verts, diam, slack, q = verts[states], diam[states], slack[states], q[keep]
            keep = _surrounds(coords, verts, s, q, slack[s])
            s, q = s[keep], q[keep]
            if s.size:
                found = self._first_accepted(sq_cand, np.column_stack([verts[s], q]), diam[s])
                if found is not None:
                    return found[1:]
        return None

    def _first_accepted(self, sq_cand, subsets, diam):
        """The first subset the kernel accepts, in (diameter, ids) order, as
        (diameter, ids, weights), or None. Rows of ``subsets`` are candidate
        indices, in any order and possibly repeated."""
        by_id = np.argsort(self.ids[subsets], axis=1)
        subsets = np.take_along_axis(subsets, by_id, axis=1)
        key = self.ids[subsets]
        rank = np.lexsort(tuple(key[:, ::-1].T) + (diam,))
        subsets, key, diam = subsets[rank], key[rank], diam[rank]
        distinct = np.ones(len(key), dtype=bool)
        distinct[1:] = (key[1:] != key[:-1]).any(axis=1)
        subsets, key, diam = subsets[distinct], key[distinct], diam[distinct]
        for lo in range(0, len(subsets), _KERNEL_BATCH):
            chunk = subsets[lo : lo + _KERNEL_BATCH]
            inside, weights = batch_strict_inclusion(sq_cand, self.sq_to_l, chunk, self.m)
            if inside.any():
                i = lo + int(np.argmax(inside))
                return float(diam[i]), tuple(int(k) for k in key[i]), weights[0].copy()
        return None

    def _pivot_walk(self, sq_cand, coords, pivots, n_old, sq_reach, frame_err):
        """3-D walk: the first containing subset through some pivot.

        Every subset the kernel accepts has a vertex among ``pivots``
        (``_pivots``), so the first accepted subset is the smallest, in
        (diameter, ids) order, of each pivot's first. Pivot v lists the
        other candidates by distance from v, and a subset through v is
        walked once, with the member last in that list, at that member's
        distance: no subset through v of squared diameter D has a member
        farther than D from v. The (pivot, member) entries of all pivots
        are walked in order of that distance, ``_PAIR_BUDGET // 8``
        subsets a batch, and the walk stops at the first entry farther
        than the best hit's diameter.
        """
        n = sq_cand.shape[0]
        others = np.argsort(sq_cand[pivots], axis=1)
        others = others[others != pivots[:, None]].reshape(pivots.size, n - 1)
        dist = np.take_along_axis(sq_cand[pivots], others, axis=1)
        # entry (pivot row, position t >= 2) closes the subsets {v, o_i, o_j, o_t}, i < j < t
        row, pos = np.divmod(np.argsort(dist[:, 2:], axis=None), n - 3)
        pos += 2
        bound = dist[row, pos]
        del dist
        # rows before each entry: entry t walks the t (t - 1) / 2 pairs before it
        rows_before = np.concatenate([[0], np.cumsum(pos * (pos - 1) // 2)])
        hi, lo = np.tril_indices(n - 1, -1)  # pairs in order of their larger position
        batch = max(1, _PAIR_BUDGET // 8)
        best, done = None, 0
        while True:
            todo = rows_before[-1 if best is None else np.searchsorted(bound, best[0], side="right")]
            if done >= todo:
                return None if best is None else best[1:]
            g = np.arange(done, min(done + batch, todo))
            done += g.size
            e = np.searchsorted(rows_before, g, side="right") - 1
            p = g - rows_before[e]
            r = row[e]
            v, a, b, c = pivots[r], others[r, lo[p]], others[r, hi[p]], others[r, pos[e]]
            diam = np.maximum(np.maximum(bound[e], sq_cand[a, b]), np.maximum(sq_cand[a, c], sq_cand[b, c]))
            keep = (v >= n_old) | (a >= n_old) | (b >= n_old) | (c >= n_old)
            if best is not None:
                keep &= diam <= best[0]
            if not keep.any():
                continue
            # a state is (pivot, pair): the entries of one pivot share its pairs
            _, first, s = np.unique((r * hi.size + p)[keep], return_index=True, return_inverse=True)
            v, a, b, c, diam = v[keep], a[keep], b[keep], c[keep], diam[keep]
            slack = _slack(diam, sq_reach, 3, frame_err)
            keep = _surrounds(coords, np.column_stack([v, a, b])[first], s, c, slack)
            if not keep.any():
                continue
            found = self._first_accepted(sq_cand, np.column_stack([v, a, b, c])[keep], diam[keep])
            if found is not None and (best is None or found[:2] < best[:2]):
                best = found


def triangulate_sensor(field: SensorField, l: int, r0=None, growth=1.25) -> TriangulationSet:
    """Set-up phase for one sensor: grow the radius until triangulated.

    Starts from a small radius and multiplies it by ``growth`` after each
    failed round. A round with fewer than m+1 candidates, or none new since
    the previous round, fails without a search. Success within the network
    diameter is guaranteed for a valid field because the anchors themselves
    contain every sensor; failure past that point raises DivergedError. A
    round whose arrays could pass ``_SETUP_BYTES`` (``_round_bytes``) raises
    DeploymentError before it allocates them.
    """
    if l not in field.sensor_ids:
        raise DeploymentError(f"node {l} is not a sensor")
    if r0 is None:
        r0 = _default_r0(field)
    if not (math.isfinite(r0) and r0 > 0 and math.isfinite(growth) and growth > 1.0):
        raise DeploymentError("need finite r0 > 0 and finite growth > 1")
    search = _Search(field, l)
    radius, n_old = float(r0), 0
    while True:
        n_c = search.count(radius)
        found = None
        if n_c > max(n_old, field.m):
            _check_round_bytes(l, radius, n_c, field.m)
            found = search.first_inside(n_c, n_old)
        if found is not None:
            theta, w = found
            return TriangulationSet(l, radius, theta, BarycentricWeights(l, theta, w))
        if n_c >= field.n_nodes - 1:
            raise DivergedError(
                f"sensor {l} saw every node at radius {radius:.6g} and still "
                "found no containing subset; field violates the convexity assumption"
            )
        radius, n_old = radius * growth, n_c


def triangulate_all(field: SensorField, r0=None, growth=1.25) -> dict[int, TriangulationSet]:
    """Triangulate every sensor; independent per sensor, deterministic."""
    if r0 is None:
        r0 = _default_r0(field)
    return {l: triangulate_sensor(field, l, r0=r0, growth=growth) for l in field.sensor_ids}


def can_triangulate(field: SensorField, l: int, r: float) -> bool:
    """Whether some m+1 neighbors within radius ``r`` strictly contain ``l``."""
    if l not in field.sensor_ids:
        raise DeploymentError(f"node {l} is not a sensor")
    search = _Search(field, l)
    n_c = search.count(float(r))
    if n_c <= field.m:
        return False
    _check_round_bytes(l, float(r), n_c, field.m)
    return search.first_inside(n_c) is not None


def sector_sufficiency_check(field: SensorField, l: int, r: float) -> bool:
    """One-neighbor-per-orthant test around sensor ``l`` at radius ``r``.

    Splitting the radius-r ball into 2^m equal sectors, a neighbor in every
    sector is sufficient for triangulation within r. Needs directional
    information, so this is a deployment analysis aid (it reads true
    coordinates), not part of the distance-only protocol.
    """
    if field.m not in (2, 3):
        raise UnsupportedDimensionError("sector test defined for dimensions 2 and 3")
    sq = field.sq_distances_from(l)
    rows = np.flatnonzero(sq < r * r)
    rows = rows[rows != l - 1]
    if rows.size == 0:
        return False
    rel = field._all_coords[rows] - field._all_coords[l - 1]
    bits = (rel >= 0.0).astype(int)
    sector = bits @ (1 << np.arange(field.m))
    return len(np.unique(sector)) == (1 << field.m)


def triangulation_probability_bound(gamma: float, r: float) -> float:
    """Lower bound on the chance a planar sensor triangulates within radius r.

    Probability that each quadrant sector of the radius-r disk holds at least
    one Poisson(gamma) point: (1 - exp(-gamma pi r^2 / 4))^4.
    """
    if not all(math.isfinite(x) and x > 0 for x in (gamma, r)):
        raise DeploymentError("gamma and r must be finite and positive")
    return (1.0 - math.exp(-gamma * math.pi * r * r / 4.0)) ** 4


def min_radius_for_probability(gamma: float, eps: float) -> float:
    """Communication radius R guaranteeing triangulation probability >= eps."""
    _check_eps(eps)
    if not (math.isfinite(gamma) and gamma > 0):
        raise DeploymentError("gamma must be finite and positive")
    return 2.0 * math.sqrt(-4.0 * math.log(1.0 - eps**0.25) / (gamma * math.pi))


def min_density_for_probability(R: float, eps: float) -> float:
    """Deployment density guaranteeing triangulation probability >= eps at R."""
    _check_eps(eps)
    if not (math.isfinite(R) and R > 0):
        raise DeploymentError("R must be finite and positive")
    return -4.0 * math.log(1.0 - eps**0.25) / (math.pi * (R / 2.0) ** 2)


def _check_eps(eps):
    if not 0.0 < eps < 1.0:
        raise DeploymentError("target probability must lie in (0, 1)")


# -- field files -------------------------------------------------------------


def save_field(field: SensorField, path):
    """Write a field as structured text: one {id, role, coords} record per line."""
    lines = ["# dilocsim field file"]
    lines.append(f"m\t{field.m}")
    dens = "-" if field.density is None else f"{field.density:.17g}"
    lines.append(f"density\t{dens}")
    for i in field.anchor_ids:
        coords = "\t".join(f"{c:.17g}" for c in field.anchor_coords[i - 1])
        lines.append(f"{i}\tanchor\t{coords}")
    for i in field.sensor_ids:
        coords = "\t".join(f"{c:.17g}" for c in field._sensor_coords[i - field.m - 2])
        lines.append(f"{i}\tsensor\t{coords}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field(path) -> SensorField:
    """Read a field file written by save_field; validates all invariants."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise FieldLoadError(f"cannot read field file {path}: {exc}") from exc
    lines = [ln for ln in raw if ln.strip() and not ln.lstrip().startswith("#")]
    try:
        header = dict(ln.split("\t", 1) for ln in lines[:2])
        m = int(header["m"])
        density = None if header["density"] == "-" else float(header["density"])
    except (KeyError, ValueError, IndexError) as exc:
        raise FieldLoadError(f"malformed field header in {path}") from exc
    if m < 1:
        raise FieldLoadError(f"field dimension m must be at least 1, got {m} in {path}")
    anchors, sensors = [], []
    expected_id = 1
    for ln in lines[2:]:
        parts = ln.split("\t")
        if len(parts) != 2 + m:
            raise FieldLoadError(f"bad record {ln!r}: expected id, role and {m} coordinates")
        try:
            node_id = int(parts[0])
            coords = [float(x) for x in parts[2:]]
        except ValueError as exc:
            raise FieldLoadError(f"bad record {ln!r}") from exc
        if node_id != expected_id:
            raise FieldLoadError(f"ids must be contiguous from 1, got {node_id}")
        expected_id += 1
        role = parts[1]
        if role == "anchor":
            if sensors:
                raise FieldLoadError("anchors must precede sensors")
            anchors.append(coords)
        elif role == "sensor":
            sensors.append(coords)
        else:
            raise FieldLoadError(f"unknown role {role!r}")
    if len(anchors) != m + 1:
        raise FieldLoadError(f"need {m + 1} anchors, found {len(anchors)}")
    try:
        return SensorField(m, np.array(anchors), np.array(sensors), density=density)
    except DeploymentError as exc:
        raise FieldLoadError(f"field file {path} violates invariants: {exc}") from exc


def demo_network() -> SensorField:
    """Seven-node planar demo: three anchors, four sensors.

    The sensors interlock: each triangulates off at most one anchor and one
    of them (node 5) sees no anchor at all, so nobody can localize in a
    single step.
    """
    anchors = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.2]])
    sensors = np.array([[2.0, 1.2], [3.0, 1.6], [4.0, 1.2], [3.0, 2.8]])
    return SensorField(2, anchors, sensors, density=None)
