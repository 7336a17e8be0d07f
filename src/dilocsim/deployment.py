"""Sensor fields and the triangulation set-up phase.

A field holds m+1 anchors with known coordinates and M sensors whose true
coordinates exist only behind an oracle accessor; the localization protocol
sees node ids, anchor coordinates and measured inter-node distances, nothing
else. The set-up phase grows a per-sensor radius until some m+1 neighbors
strictly contain the sensor in their hull, which fixes its barycentric
weights. Poisson deployment utilities quantify how large that radius must be.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from importlib import resources
from itertools import combinations

import numpy as np

from .geometry import (
    HULL_REL_TOL,
    VOLUME_TOL,
    BarycentricWeights,
    DistanceMatrix,
    _drop_one,
    _sq_distances,
    barycentric_coordinates,  # noqa: F401  (bench/meter.py wraps it in this module too)
    batch_strict_inclusion,
)

_FIELD_STREAM = 101  # seed-stream tag for field generation
_DEMO_FIELD = str(resources.files("dilocsim").joinpath("data/demo7.field"))  # the packaged demo network

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
        if density is not None and not (math.isfinite(density) and density > 0):
            raise DeploymentError(f"field density must be finite and positive, got {density}")
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
        # a nan fails every test below, and a nan distance never falls in a set-up radius
        bad = np.flatnonzero(~np.isfinite(self._all_coords).all(axis=1))
        if bad.size:
            raise DeploymentError(f"node {bad[0] + 1} has a non-finite coordinate")
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
        row = self._row(node_id)
        return _sq_distances(self._all_coords, self._all_coords[row : row + 1])[:, 0]

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
    DeploymentError before any draw if the mean count's coordinates could pass _SETUP_BYTES.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise DeploymentError("deployment density must be finite and positive")
    anchors = np.asarray(anchor_simplex, dtype=float)
    mean = gamma * _simplex_volume(anchors, m)
    if not 8 * (m + 1) * mean <= _SETUP_BYTES:  # the draw's coordinate arrays; nan and inf fail too
        raise DeploymentError(f"Poisson mean count {mean:.6g} would pass the set-up budget of {_SETUP_BYTES} bytes")
    rng = np.random.default_rng([_u64(seed), _FIELD_STREAM])
    count = int(rng.poisson(mean))
    spacings = rng.exponential(size=(count, m + 1))
    weights = spacings / spacings.sum(axis=1, keepdims=True)
    sensors = weights @ anchors
    return SensorField(m, anchors, sensors, density=gamma)


def _simplex_volume(anchors: np.ndarray, m: int) -> float:
    """Volume of the anchor simplex; DeploymentError unless it has m+1 finite
    points in dimension m, DegenerateAnchorsError when it is flat (volume at most
    1e-12 of its diameter to the m-th power)."""
    if anchors.shape != (m + 1, m):
        raise DeploymentError(f"anchor simplex must be ({m + 1}, {m}), got {anchors.shape}")
    if not np.isfinite(anchors).all():
        raise DeploymentError("anchor simplex has a non-finite coordinate")
    with np.errstate(over="ignore", invalid="ignore"):  # a volume past the float range reads inf
        volume = abs(np.linalg.det(anchors[1:] - anchors[0])) / math.factorial(m)
        diam_sq = float(_sq_distances(anchors, anchors).max())
        if diam_sq == 0.0 or volume / diam_sq ** (m / 2.0) <= 1e-12:
            raise DegenerateAnchorsError("anchors lie on a hyperplane")
    return volume


def _u64(seed) -> int:
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def _default_r0(field: SensorField) -> float:
    if field.density:
        return field.density ** (-1.0 / field.m) / 2.0
    # explicit fields: half the median nearest-neighbor distance, where a
    # node at distance 0 (the sensor itself, or a coincident twin) sets no scale
    nn = []
    for l in field.sensor_ids:
        sq = field.sq_distances_from(l)
        nn.append(math.sqrt(sq[sq > 0.0].min(initial=math.inf)))
    r0 = float(np.median(nn)) / 2.0
    if not math.isfinite(r0):  # a sensor with no node at distance > 0: every node sits on it
        raise DeploymentError("all nodes of the field coincide, so no default r0 exists")
    return r0


def _local_frame(column, sq_to_l: np.ndarray, m: int):
    """Coordinates of the candidates relative to sensor l, from distances alone.

    Pivoted Cholesky of the l-centred Gram matrix
    G_ab = (|la|^2 + |lb|^2 - |ab|^2) / 2, stopped after m pivots: an exact
    isometric image of the vectors from l when the distances are exact.
    ``column(p)`` gives the squared distances from candidate p to every
    candidate; only the m pivots' columns are read.
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
        col = (sq_to_l + sq_to_l[p] - column(p)) / 2.0
        if j:  # the first column has no earlier ones to take off
            col -= coords[:, :j] @ coords[p, :j]
        coords[:, j] = col / math.sqrt(h_sq)
        resid -= coords[:, j] ** 2
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


_COFACTOR_SIGN = (-1.0) ** np.add.outer(np.arange(3), np.arange(3))  # (-1)^(i + j): m x m is [:m, :m]
_COFACTOR_SIGN.flags.writeable = False


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
    m = coords.shape[1]
    others = _drop_one(m)
    a = coords[verts].transpose(0, 2, 1)
    # minors[:, j, i] drops row j and column i; adj[i, j] is its signed determinant
    minors = a[:, others[:, None, :, None], others[None, :, None, :]]
    adj = _COFACTOR_SIGN[:m, :m] * _det(minors).transpose(0, 2, 1)
    vals = np.einsum("kij,kj->ki", adj[s], coords[q])
    base, tol = -_det(a)[s], slack
    low, high = base >= -tol, base <= tol
    for i in range(vals.shape[1]):
        low &= vals[:, i] >= -tol
        high &= vals[:, i] <= tol
    return low | high


def _beyond(pts: np.ndarray, w: float) -> bool:
    """Whether some direction puts every row farther than w from the origin
    along it. Then the origin lies outside the rows' hull by more than w,
    and the half-space facing away from that direction holds no row.

    The search follows Wolfe's path to the hull's point x nearest the origin
    ("Finding the nearest point in a polytope", Math. Programming 1976). x
    is the nearest point of a corral of rows, one inside their own hull.
    While some row lies below |x|^2 along x, the least such row joins the
    corral; when the corral's nearest point then leaves its hull, x moves
    toward it until a weight reaches 0, and that row leaves. The search
    stops as soon as x is such a direction, or once |x| <= w, where none can
    be. A path that stalls in rounding answers False, which skips nothing.
    """
    sq = np.einsum("ij,ij->i", pts, pts)
    corral, weights = [int(np.argmin(sq))], np.ones(1)
    x, stall = pts[corral[0]], 1e-12 * float(sq.max())
    for _ in range(8 * pts.shape[1] + 8):
        along = pts @ x
        j = int(np.argmin(along))
        xx = float(x @ x)
        if along[j] > w * math.sqrt(xx):
            return True
        if xx <= w * w or xx - along[j] <= stall or j in corral:
            return False
        corral.append(j)
        weights = np.append(weights, 0.0)
        while True:
            # the point of the corral's affine hull nearest the origin: weights summing to 1
            q = pts[corral]
            s = len(corral)
            kkt = np.ones((s + 1, s + 1))
            kkt[:s, :s] = q @ q.T
            kkt[s, s] = 0.0
            rhs = np.zeros(s + 1)
            rhs[s] = 1.0
            try:
                affine = np.linalg.solve(kkt, rhs)[:s]
            except np.linalg.LinAlgError:
                return False
            if (affine > 0.0).all():
                weights = affine
                break
            out = affine <= 0.0
            weights = weights + float((weights[out] / (weights[out] - affine[out])).min()) * (affine - weights)
            weights[np.argmin(np.where(out, weights, np.inf))] = 0.0
            corral = [i for i, keep in zip(corral, weights > 0.0) if keep]
            weights = weights[weights > 0.0]
        x = weights @ pts[corral]
    return False


def _sweep(coords: np.ndarray, w: float):
    """``_beyond``'s answer where the candidates' directions alone give it:
    False when they show l inside the candidates' hull, True when they show
    a half-space through l, widened by w, that holds no candidate, and None
    when they show neither.

    On a line: inside when candidates lie on both sides of l. In the plane,
    from the angles around l, sorted (the angular sweep of Rousseeuw & Ruts,
    "Algorithm AS 307", 1996): inside when no gap between consecutive
    directions reaches pi, less a margin of 1e-9 for the rounding of the
    angles, since every open half-plane through l then holds a candidate;
    outside when the widest gap passes pi and every candidate lies more
    than w behind the direction that halves it. In 3-D: None.
    """
    m = coords.shape[1]
    if m == 1:
        return False if coords.min() < 0.0 < coords.max() else None
    if m > 2:
        return None
    angle = np.sort(np.arctan2(coords[:, 1], coords[:, 0]))
    ring = np.append(angle, angle[0] + 2.0 * math.pi)
    gaps = ring[1:] - ring[:-1]
    i = int(np.argmax(gaps))
    gap = float(gaps[i])
    if gap < math.pi - 1e-9:
        return False
    mid = float(angle[i]) + gap / 2.0
    if gap > math.pi and float((coords @ np.array([math.cos(mid), math.sin(mid)])).max()) < -w:
        return True
    return None


def _pivots(coords: np.ndarray, frame_err: float) -> np.ndarray:
    """Pivots of a round: the candidates in a closed half-space through l,
    widened so that every subset the kernel accepts has one; none when the
    round can be skipped.

    Every simplex that strictly contains l has a vertex in every closed
    half-space through l (Tukey's halfspace depth), in every dimension m.
    H = {x : u.x >= -w} for a unit vector u, taken as the one whose H holds
    the fewest candidates among the directions away from each candidate
    (on a line: the side of l with fewer candidates). When each of those
    holds one, a u whose H holds none exists exactly when l lies outside
    the candidates' hull by more than w. ``_sweep`` answers that from the
    candidates' directions where it can, ``_beyond`` elsewhere.

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
    r = np.sqrt(np.einsum("ij,ij->i", coords, coords))
    r_min = float(r.min())
    if not math.isfinite(frame_err) or r_min == 0.0:  # a degenerate frame or a candidate at l
        return np.arange(len(coords))
    w = 1e-3 * float(r.max()) + frame_err / r_min**2
    inside = -coords / r[:, None] @ coords.T >= -w
    counts = inside.sum(axis=1)
    if counts.min():
        beyond = _sweep(coords, w)
        if beyond is None:
            beyond = _beyond(coords, w)
        if beyond:
            return np.arange(0)
    return np.flatnonzero(inside[int(np.argmin(counts))])


_WALK_BATCH = 1 << 16  # subsets per band of the walk
_KERNEL_BATCH = 1 << 12  # subsets per inclusion-kernel call
_SETUP_BYTES = 1 << 31  # most bytes one set-up round may hold: past it, DeploymentError


def _round_bytes(n_c: int, m: int, k: int = 0) -> int:
    """Most bytes the arrays of one set-up round over n_c candidates hold at
    once, given k pivots (0 before ``_pivots`` has counted them).

    The squared-distance table holds 8 n_c^2 once built. Besides it,
    building it holds the 8 m n_c^2 coordinate differences, and ``_pivots``
    (before the table) one float and one bool per (direction, candidate),
    9 n_c^2. The walk holds at most 96 bytes per (pivot, candidate): each
    pivot's others and their distances, and the entries' order, pivot rows,
    positions and rank bounds. A band adds at most 1 KiB per subset
    (_WALK_BATCH) and 4 KiB per subset of a kernel call (_KERNEL_BATCH).
    The same form holds for every m, and k = n_c bounds any round.
    """
    before_walk = 8 * max(m, 2) * n_c * n_c
    return 8 * n_c * n_c + max(before_walk, 96 * k * n_c) + 1024 * _WALK_BATCH + 4096 * _KERNEL_BATCH


def _firsts(m: int, n: int) -> np.ndarray:
    """C(t, m) for t = 0, 1, ..., n - 1, exactly (m <= 3): the colex rank of
    the first m-combination whose largest member is t."""
    c = np.ones(n, dtype=np.int64)
    for i in range(m):
        c *= np.arange(-i, n - i)
    return c // math.factorial(m)


def _unrank(m: int, ranks: np.ndarray, n: int) -> list:
    """The m-combinations of positions below n with colex ranks ``ranks``,
    as m arrays of members, ascending. Colex order runs by the largest
    member t, then by the rest in colex order: ranks [C(t, m), C(t + 1, m))
    close at t, and the rank less C(t, m) ranks the rest."""
    members = []
    for j in range(m, 1, -1):
        first = _firsts(j, n)
        members.insert(0, first.searchsorted(ranks, side="right") - 1)
        ranks = ranks - first[members[0]]
    return [ranks, *members] if m else []  # C(t, 1) = t


@functools.lru_cache(maxsize=None)
def _colex(m: int, rows: int):
    """The m-combinations (m >= 1) of positions 0, 1, 2, ... in colex order
    (``_unrank``), as many whole as fit in ``rows`` (those below n are the
    first C(n, m)), and the rank of each one's first m - 1 members among the
    (m - 1)-combinations. Built once per (m, rows), in the smallest integer
    types that hold it, since it stays in memory; read-only, since every
    caller shares it. ``_Search._walk`` asks for ``_WALK_BATCH`` rows and
    reads a prefix, whose rows closing at its last position t list, less t,
    the (m - 1)-combinations below t; for m <= 3 its tables take under 1 MB.
    """
    n = bisect.bisect_right(range(m + rows + 1), rows, key=lambda t: math.comb(t, m)) - 1  # C(n, m) <= rows
    table = np.empty((math.comb(n, m), m), dtype=np.min_scalar_type(n - 1))
    rank = np.empty(len(table), dtype=np.min_scalar_type(math.comb(n - 1, m - 1) - 1))
    first = _firsts(m, n)
    for lo in range(0, len(table), 1 << 12):  # in slices: int64 temporaries of the whole would outweigh the tables
        hi = min(lo + (1 << 12), len(table))
        table[lo:hi] = np.column_stack(_unrank(m, np.arange(lo, hi), n))
        rank[lo:hi] = np.arange(lo, hi) - first[table[lo:hi, -1]]
    table.flags.writeable = rank.flags.writeable = False
    return table, rank


def _check_round_bytes(l: int, radius: float, n_c: int, m: int, k: int = 0):
    need = _round_bytes(n_c, m, k)
    if need > _SETUP_BYTES:
        raise DeploymentError(
            f"sensor {l}: the set-up round at radius {radius:.6g} over {n_c} candidates "
            f"needs up to {need} bytes, past the budget of {_SETUP_BYTES}"
        )


def _through(pivots: np.ndarray, others: np.ndarray, combos: np.ndarray) -> np.ndarray:
    """Rows (pivot, its others at the positions of one row of ``combos``),
    pivot by pivot: ``others[r]`` lists the other candidates of pivot r."""
    rows = np.empty((pivots.size, len(combos), combos.shape[1] + 1), dtype=np.intp)
    rows[:, :, 0] = pivots[:, None]
    rows[:, :, 1:] = others[:, combos]
    return rows.reshape(-1, combos.shape[1] + 1)


class _Search:
    """The set-up search of sensor l.

    Candidates are the other nodes in order of distance from l, sorted once
    (ties in any order: they fall in the same round, and the search is keyed
    by ids and values), so every round's candidates are a prefix of that
    order. Nothing else carries over: each round builds its own distance
    table and pivot lists from that prefix. Directions come from
    ``_local_frame``, so the search reads squared distances only.
    """

    def __init__(self, field: SensorField, l: int):
        if field.m > 3:
            raise UnsupportedDimensionError(f"set-up is defined for dimensions 1 to 3, not {field.m}")
        self.l, self.m = l, field.m
        row = field.sq_distances_from(l)
        row[l - 1] = np.inf  # l is not its own candidate: it sorts last
        order = np.argsort(row)[:-1]
        self.ids = order + 1
        self.sq_to_l = row[order]
        self._pts = field._all_coords[order]
        self._index = np.empty(order.size + 2, dtype=np.intp)  # node id -> candidate index
        self._index[self.ids] = np.arange(order.size)

    def count(self, radius: float) -> int:
        """Number of candidates strictly within ``radius``."""
        return int(np.searchsorted(self.sq_to_l, radius * radius, side="left"))

    def first_inside(self, radius: float, n_old: int = 0):
        """First strictly containing (m+1)-subset of the candidates within
        ``radius`` and l's barycentric weights in it, or None.

        Candidate subsets are ordered by (max pairwise distance, lexicographic
        ids): tight cells first, deterministic throughout. Only subsets
        holding a candidate of index n_old or more count, since every other
        one failed in an earlier round. Every subset the kernel accepts has
        a vertex among the pivots of ``_pivots``, so a round with none is
        skipped whole, and the others walk (``_walk``) only the subsets
        through a pivot, for m = 1, 2 and 3 alike. Of those, only subsets
        whose directions from l surround it within the slack of ``_slack``
        reach the kernel; the rest provably fail it. The kernel pass that
        accepts the subset also gives the weights, from the same volumes.

        A round builds its n_c x n_c squared-distance table only when it is
        walked; the frame reads m of its columns, measured on their own. Its
        arrays stay within ``_round_bytes(n_c, m, k)`` for k pivots, which
        is checked against ``_SETUP_BYTES`` before the frame is built and
        again once k is known.
        """
        m, n_c = self.m, self.count(radius)
        _check_round_bytes(self.l, radius, n_c, m)
        pts, sq_to_l = self._pts[:n_c], self.sq_to_l[:n_c]
        coords, frame_err = _local_frame(lambda p: _sq_distances(pts, pts[p : p + 1])[:, 0], sq_to_l, m)
        pivots = _pivots(coords, frame_err)
        if not pivots.size:
            return None
        _check_round_bytes(self.l, radius, n_c, m, pivots.size)
        return self._walk(_sq_distances(pts, pts), coords, pivots, n_old, float(sq_to_l[-1]), frame_err)

    def _first_accepted(self, sq_cand, subsets, diam):
        """The first subset the kernel accepts, in (diameter, ids) order, as
        (diameter, ids, weights), or None. Rows of ``subsets`` are candidate
        indices, in any order and possibly repeated."""
        key = np.sort(self.ids[subsets], axis=1)
        rank = np.lexsort((*key.T[::-1], diam))
        key, diam = key[rank], diam[rank]
        distinct = np.ones(len(key), dtype=bool)
        distinct[1:] = (key[1:] != key[:-1]).any(axis=1)
        key, diam = key[distinct], diam[distinct]
        subsets = self._index[key]  # the members in id order, as candidate indices
        for lo in range(0, len(subsets), _KERNEL_BATCH):
            chunk = subsets[lo : lo + _KERNEL_BATCH]
            inside, weights = batch_strict_inclusion(sq_cand, self.sq_to_l, chunk, self.m)
            if inside.any():
                i = lo + int(np.argmax(inside))
                return float(diam[i]), tuple(int(k) for k in key[i]), weights[0].copy()
        return None

    def _test(self, sq_cand, coords, members, diam, verts, s, sq_reach, frame_err):
        """``_first_accepted`` among the subsets ``members`` that surround l
        within the slack of their diameters ``diam``. Row i of ``members``
        holds the m vertices ``verts[s[i]]`` and, last, one more."""
        slack = _slack(diam, sq_reach, self.m, frame_err)
        keep = _surrounds(coords, verts, s, members[:, -1], slack)
        return self._first_accepted(sq_cand, members[keep], diam[keep]) if keep.any() else None

    def _walk(self, sq_cand, coords, pivots, n_old, sq_reach, frame_err):
        """The first containing subset through some pivot.

        Every subset the kernel accepts has a vertex among ``pivots``
        (``_pivots``), so the first accepted subset is the smallest, in
        (diameter, ids) order, of each pivot's first. A subset through pivot
        v is v and m of v's other candidates, named by the colex rank of
        their positions in v's list (``_unrank``), and a band is one slice
        of ranks, ``_WALK_BATCH`` subsets at most. When all fit one band,
        the lists keep index order and every pivot reads one shared
        ``_colex`` table. Otherwise v lists its others by distance from v,
        so that no subset through v of squared diameter D closes (has its
        last member) past D. The (pivot, position) entries then take one
        order, by that distance, and the ranks closing at each entry follow
        in it; band g is the ranks [g, g + ``_WALK_BATCH``) of that order,
        up to the first band that starts past the best hit's diameter.
        """
        m, n, k = self.m, sq_cand.shape[0], pivots.size
        total, states = math.comb(n - 1, m), math.comb(n - 2, m - 1)  # ranks of subsets, of states
        if k * total <= _WALK_BATCH:
            table, rank = _colex(m, _WALK_BATCH)  # total <= _WALK_BATCH rows
            position = np.arange(n - 1)
            others = position + (position >= pivots[:, None])  # (pivot, position) -> candidate
            members = _through(pivots, others, table[:total])
            s = (states * np.arange(k)[:, None] + rank[:total]).ravel()
            if n_old:
                # the last member is the pivot's other candidate of highest index
                keep = (members[:, 0] >= n_old) | (members[:, -1] >= n_old)
                members, s = members[keep], s[keep]
            pairs = combinations(range(m + 1), 2)
            diam = functools.reduce(np.maximum, (sq_cand[members[:, a], members[:, b]] for a, b in pairs))
            verts = _through(pivots, others, table[total - states : total, :-1])  # rows closing at n - 2: the states
            found = self._test(sq_cand, coords, members, diam, verts, s, sq_reach, frame_err)
            return None if found is None else found[1:]
        near = sq_cand[pivots]
        others = near.argsort(axis=1)
        others = others[others != pivots[:, None]].reshape(k, n - 1)
        near = np.take_along_axis(near, others, axis=1)  # each pivot's distances to its others, ascending
        # the (pivot, position) entries by distance, ties by (pivot row, position),
        # and the ranks before each: C(t, m - 1) ranks close at position t
        order = near.argsort(axis=None, kind="stable")
        r, t = np.divmod(order, n - 1)  # each entry's pivot row and position
        bounds = np.concatenate([[0], _firsts(m - 1, n - 1)[t].cumsum()])
        best = None
        for g in range(0, k * total, _WALK_BATCH):
            top = min(g + _WALK_BATCH, k * total)  # band g holds ranks [g, top), within entries [lo, hi)
            lo, hi = bounds.searchsorted(g, side="right") - 1, bounds.searchsorted(top)
            entry = np.arange(lo, hi).repeat(np.diff(bounds[lo : hi + 1].clip(g, top)))  # each subset's entry
            diam = near.take(order[entry])  # the pivot's farthest member; the other pairs follow
            if best is not None and diam[0] > best[0]:
                return best[1:]  # every rank left closes past the best hit's diameter
            rest = np.arange(g, top) - bounds[entry]  # its first m - 1 positions' rank (with the pivot: a state)
            e, last = r[entry], t[entry]  # each subset's pivot row and last position
            row = e * (n - 1)
            cols = [pivots[e], *(others.take(row + p) for p in _unrank(m - 1, rest, n - 1) + [last])]
            for a, b in combinations(cols[1:], 2):
                diam = np.maximum(diam, sq_cand[a, b])
            keep = functools.reduce(np.logical_or, (c >= n_old for c in cols))
            keep &= diam <= (math.inf if best is None else best[0])
            if not keep.any():
                continue
            _, at, s = np.unique((e * states + rest)[keep], return_index=True, return_inverse=True)
            members, diam = np.column_stack([c[keep] for c in cols]), diam[keep]
            found = self._test(sq_cand, coords, members, diam, members[at, :m], s, sq_reach, frame_err)
            if found is not None and (best is None or found[:2] < best[:2]):
                best = found
        return None if best is None else best[1:]


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
        found = search.first_inside(radius, n_old) if n_c > max(n_old, field.m) else None
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
    if r0 is None and field.n_sensors:  # a field without sensors sets no scale, and needs none
        r0 = _default_r0(field)
    return {l: triangulate_sensor(field, l, r0=r0, growth=growth) for l in field.sensor_ids}


def can_triangulate(field: SensorField, l: int, r: float) -> bool:
    """Whether some m+1 neighbors within radius ``r`` strictly contain ``l``."""
    if l not in field.sensor_ids:
        raise DeploymentError(f"node {l} is not a sensor")
    if not (math.isfinite(r) and r > 0):  # the search squares r: -r would answer as r
        raise DeploymentError(f"radius must be finite and positive, got {r}")
    search = _Search(field, l)
    return search.count(float(r)) > field.m and search.first_inside(float(r)) is not None


def sector_sufficiency_check(field: SensorField, l: int, r: float) -> bool:
    """One-neighbor-per-orthant test around sensor ``l`` at radius ``r``.

    Splitting the radius-r ball into 2^m equal sectors, a neighbor in every
    sector is sufficient for triangulation within r. Needs directional
    information, so this is a deployment analysis aid (it reads true
    coordinates), not part of the distance-only protocol.
    """
    if field.m not in (2, 3):
        raise UnsupportedDimensionError("sector test defined for dimensions 2 and 3")
    if not (math.isfinite(r) and r > 0):
        raise DeploymentError(f"radius must be finite and positive, got {r}")
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
    except (OSError, UnicodeDecodeError) as exc:
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
    single step. Read from the packaged field file.
    """
    return load_field(_DEMO_FIELD)
