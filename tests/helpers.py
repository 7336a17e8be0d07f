"""Coordinate-based oracles shared across the test suite.

These deliberately avoid the library's distance-only code paths: volumes come
from edge-matrix determinants, barycentric coordinates from a linear solve,
and point location from signed weights. Library results are checked against
these, never the other way around.
"""

import math

import numpy as np
import scipy.sparse as sp


def det_cofactor(mat):
    """Recursive cofactor determinant; slow but independent of LAPACK."""
    m = [list(map(float, row)) for row in mat]
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += ((-1) ** j) * m[0][j] * det_cofactor(minor)
    return total


def simplex_volume_coords(pts):
    """Volume of the simplex on m+1 coordinate rows: |det(edges)| / m!."""
    pts = np.asarray(pts, dtype=float)
    m = pts.shape[1]
    assert pts.shape[0] == m + 1
    edges = pts[1:] - pts[0]
    return abs(np.linalg.det(edges)) / math.factorial(m)


def barycentric_oracle(p, verts):
    """Weights w with sum(w) = 1 and sum(w_k * verts[k]) = p, by linear solve."""
    verts = np.asarray(verts, dtype=float)
    p = np.asarray(p, dtype=float)
    n = verts.shape[0]
    a = np.vstack([verts.T, np.ones(n)])
    b = np.concatenate([p, [1.0]])
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    return w


def halfspace_location(p, verts, tol=1e-9):
    """'inside' / 'boundary' / 'outside' from the signs of oracle weights."""
    w = barycentric_oracle(p, verts)
    if np.any(w < -tol):
        return "outside"
    if np.any(np.abs(w) <= tol):
        return "boundary"
    return "inside"


def random_simplex(rng, m, min_volume=1e-3):
    """Random nondegenerate simplex in [0, 1]^m."""
    while True:
        verts = rng.random((m + 1, m))
        if simplex_volume_coords(verts) > min_volume:
            return verts


def random_interior_point(rng, verts, margin=0.05):
    """Strictly interior point drawn with Dirichlet weights bounded away from 0."""
    n = verts.shape[0]
    w = rng.dirichlet(np.ones(n))
    w = (1.0 - n * margin) * w + margin
    return w @ verts, w


def sq_dist_table(pts):
    pts = np.asarray(pts, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    sq = (sq + sq.T) / 2.0
    np.fill_diagonal(sq, 0.0)
    return sq


# ---------------------------------------------------------------------------
# Frozen 50-node test networks (3 anchors + 47 sensors, m = 2).
# ---------------------------------------------------------------------------

# Equilateral anchor triangle of area ~47, so unit density gives ~50 nodes.
FIFTY_NODE_ANCHORS = np.array([[0.0, 0.0], [10.42, 0.0], [5.21, 9.024]])


def uniform_50_node_field(seed):
    """Exactly 47 i.i.d.-uniform sensors in the anchor triangle.

    A Poisson deployment conditioned on its count is i.i.d. uniform, so this
    pins the node count at 50 while keeping the spatial law.
    """
    from dilocsim.deployment import SensorField

    rng = np.random.default_rng([seed, 7001])
    w = rng.exponential(size=(47, 3))
    w /= w.sum(axis=1, keepdims=True)
    return SensorField(2, FIFTY_NODE_ANCHORS.copy(), w @ FIFTY_NODE_ANCHORS)


def anchor_coupled_50_node_field():
    """Fixed 50-node network with strong anchor coupling (rho(P) ~ 0.8).

    Sensors sit on interleaved shrinking copies of the anchor triangle with
    radial gaps below the tangential spacing, so triangulation sets chain
    outward toward the anchors and absorption is fast. Used for the
    stochastic-limit acceptance run, whose fixed iteration horizon needs a
    network whose intrinsic convergence scale fits inside it.
    """
    from dilocsim.deployment import SensorField

    anchors = FIFTY_NODE_ANCHORS
    centroid = anchors.mean(axis=0)
    basis = np.vstack([anchors.T, np.ones(3)])
    shells = ((0.97, 16), (0.90, 13), (0.81, 10), (0.69, 5), (0.54, 2), (0.35, 1))
    rng = np.random.default_rng(11)
    pts = []
    for k, (scale, count) in enumerate(shells):
        tri = centroid + (anchors - centroid) * scale
        offset = 0.5 / count if k % 2 else 0.0
        for i in range(count):
            t = ((i + offset) / count * 3) % 3
            edge = int(t)
            frac = t - edge
            p = tri[edge] * (1 - frac) + tri[(edge + 1) % 3] * frac
            p = p + rng.normal(0.0, 0.06, 2)
            w = np.linalg.solve(basis, np.append(p, 1.0))
            if w.min() <= 0.003:
                p = centroid + (p - centroid) * 0.98
            pts.append(p)
    return SensorField(2, anchors.copy(), np.array(pts[:47]))


# ---------------------------------------------------------------------------
# Brute-force reference for the triangulation set-up phase.
# ---------------------------------------------------------------------------


def reference_first_inside_subset(field, l, radius):
    """First strictly containing subset of in-radius neighbors, by brute force.

    Builds every (m+1)-subset of the candidates within ``radius``, orders them
    by (max pairwise squared distance, lexicographic ids) and tests them all
    with the library's inclusion kernel. Returns (ids or None, candidate count);
    the ids are what one round of ``deployment._Search`` must return.
    """
    from itertools import combinations

    from dilocsim.geometry import batch_strict_inclusion

    m = field.m
    sq = field.sq_distances_from(l)
    cand_rows = np.flatnonzero(sq < radius * radius)
    cand_rows = cand_rows[cand_rows != l - 1]
    n_c = cand_rows.size
    if n_c < m + 1:
        return None, n_c
    pts = field._all_coords[cand_rows]
    sq_cand = sq_dist_table(pts)
    combos = np.array(list(combinations(range(n_c), m + 1)), dtype=np.intp)
    diam = sq_cand[combos[:, :, None], combos[:, None, :]].max(axis=(1, 2))
    combos = combos[np.argsort(diam, kind="stable")]
    flags, _ = batch_strict_inclusion(sq_cand, sq[cand_rows], combos, m)
    hits = np.flatnonzero(flags)
    if hits.size:
        return tuple(int(cand_rows[i]) + 1 for i in combos[hits[0]]), n_c
    return None, n_c


def reference_triangulate_sensor(field, l, r0, growth=1.25):
    """Set-up of one sensor through ``reference_first_inside_subset``.

    Returns (radius, neighbor ids); the radius schedule is the library's.
    """
    radius = float(r0)
    while True:
        theta, n_c = reference_first_inside_subset(field, l, radius)
        if theta is not None:
            return radius, theta
        if n_c >= field.n_nodes - 1:
            return radius, None
        radius *= growth


def reference_hopeless(coords, frame_err=0.0):
    """Whether set-up may skip a round, as a standalone test.

    True when the sensor lies outside the hull of the candidate directions
    ``coords`` (rows relative to the sensor) by more than the pivot
    widening w = 1e-3 R + frame_err / r_min^2 (R, r_min: the farthest and
    nearest candidate), the distance measured by brute force over every face
    of up to four candidates. A round can be skipped only then, and
    ``deployment._pivots`` skips these rounds, up to rounding at the edge.
    """
    r = np.sqrt((coords**2).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1e-3 * r.max() + frame_err / r.min() ** 2
    return bool(math.isfinite(w) and hull_distance(coords) > w)


def hull_distance(pts):
    """Distance from the origin to the convex hull of the rows of ``pts``.

    Brute force over every set of up to four points: the origin's projection
    on the set's affine hull (least squares with weights summing to one)
    counts when its weights are nonnegative; the nearest point of the hull
    is such a projection for one of its faces.
    """
    from itertools import combinations

    pts = np.asarray(pts, dtype=float)
    best = math.inf
    for size in range(1, min(4, len(pts)) + 1):
        sets = np.array(list(combinations(range(len(pts)), size)))
        p = pts[sets]  # (K, size, m)
        gram = np.einsum("kim,kjm->kij", p, p)
        kkt = np.zeros((len(sets), size + 1, size + 1))
        kkt[:, :size, :size] = gram
        kkt[:, :size, size] = kkt[:, size, :size] = 1.0
        rhs = np.zeros(size + 1)
        rhs[size] = 1.0
        sol = np.linalg.pinv(kkt) @ rhs
        weights = sol[:, :size]
        near = np.einsum("ki,kim->km", weights, p)
        ok = (weights >= -1e-12).all(axis=1) & (np.abs(weights.sum(axis=1) - 1.0) < 1e-9)
        if ok.any():
            best = min(best, float(np.sqrt((near[ok] ** 2).sum(axis=1)).min()))
    return best


# ---------------------------------------------------------------------------
# Mean-map oracle for the robust iteration.
# ---------------------------------------------------------------------------


def effective_biases(model, sys):
    """A NoiseModel's biases (S_B, S_P) on the link support, as dense arrays.

    A sensor only estimates the weights of its own links, so off-link bias
    entries are dropped; a missing bias is zero. Built from the dense bias and
    the blocks' sparsity pattern alone.
    """
    out = []
    for bias, block in ((model.bias_B, sys.B), (model.bias_P, sys.P)):
        support = sp.csr_matrix(
            (np.ones(block.nnz, dtype=bool), block.indices, block.indptr), shape=block.shape
        ).toarray()
        out.append(np.zeros(block.shape) if bias is None else np.where(support, bias, 0.0))
    return tuple(out)


# ---------------------------------------------------------------------------
# Dense and text views of the system blocks, and a synthetic system.
# ---------------------------------------------------------------------------


def synthetic_chain(M: int):
    """Planar system without set-up: each row holds one anchor and two sensor
    links of weight 1/3, so P = (S + S^2) / 3 for the cyclic shift S and
    rho(P) = 2/3."""
    from dilocsim.system import SystemMatrices

    third = np.full(M, 1.0 / 3.0)
    B = sp.csr_matrix((third, (np.arange(M), np.arange(M) % 3)), shape=(M, 3))
    rows = np.repeat(np.arange(M), 2)
    cols = (rows + np.tile([1, 2], M)) % M
    P = sp.csr_matrix((np.repeat(third, 2), (rows, cols)), shape=(M, M))
    return SystemMatrices(B, P, 2).validate()


def fundamental_matrix_series(P, terms: int) -> np.ndarray:
    """Truncated transient-power series sum_{k=0}^{terms} P^k (k = 0 gives I).

    Converges to (I - P)^-1 when the spectral radius of P is below one.
    Dense, O(M^3) per term.
    """
    A = sp.csr_matrix(P) if not sp.issparse(P) else P
    n = A.shape[0]
    eye = np.eye(n)
    total = np.eye(n)
    for _ in range(int(terms)):
        total = eye + A @ total  # Horner form of the power sum
    return total


def dump_matrices(sys, path):
    """Coordinate-list text dump of both blocks for external diffing.

    One line per nonzero: block name, 1-based row, 1-based column, value.
    """
    lines = ["# block\trow\tcol\tvalue (1-based block-local indices)"]
    for name, block in (("B", sys.B), ("P", sys.P)):
        coo = block.tocoo()
        order = np.lexsort((coo.col, coo.row))
        for i in order:
            lines.append(f"{name}\t{coo.row[i] + 1}\t{coo.col[i] + 1}\t{coo.data[i]:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def estimated_blocks(sample, sys):
    """An EnvironmentSample's estimated weights as CSR blocks (B_hat, P_hat)."""
    return tuple(
        sp.csr_matrix((data, block.indices, block.indptr), shape=block.shape)
        for data, block in ((sample.b_hat_data, sys.B), (sample.p_hat_data, sys.P))
    )


MIS_SHAPED = ("extra-row", "missing-row", "anchor-rows")


def mis_shaped(sys, anchors, case):
    """An (initial state, anchor block) pair that does not fit the system:
    one sensor row too many or too few, or an anchor block with an extra row."""
    from dilocsim.engine import state_from_guess
    from dilocsim.system import AnchorBlock

    U = np.asarray(anchors.U)
    rows = {"extra-row": sys.M + 1, "missing-row": sys.M - 1}.get(case, sys.M)
    block = AnchorBlock(np.vstack([U, U[:1]])) if case == "anchor-rows" else anchors
    return state_from_guess(anchors, np.zeros((rows, sys.m))), block


MIS_SHAPED_ORACLE = ("one-row", "missing-row", "extra-row")


def mis_shaped_oracle(xstar, case):
    """Reference positions that do not fit the system: a single row (which
    would broadcast against every sensor), one row too few or one too many."""
    return {"one-row": xstar[0], "missing-row": xstar[:-1], "extra-row": np.vstack([xstar, xstar[:1]])}[case]
