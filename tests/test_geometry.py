import math

import numpy as np
import pytest

from dilocsim import geometry as geo
from helpers import (
    barycentric_oracle,
    det_cofactor,
    halfspace_location,
    random_interior_point,
    random_simplex,
    simplex_volume_coords,
    sq_dist_table,
)

# Canonical small figures.
UNIT_RIGHT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
REGULAR_TET = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, math.sqrt(3) / 2, 0.0],
        [0.5, math.sqrt(3) / 6, math.sqrt(2.0 / 3.0)],
    ]
)

# Hull set with sides 1, 1, 4 (violates the triangle inequality) and a fourth
# node at unit distance from each of its vertices.
NOT_EMBEDDABLE = geo.validate_distance_matrix(
    np.array(
        [
            [0.0, 1.0, 16.0, 1.0],
            [1.0, 0.0, 1.0, 1.0],
            [16.0, 1.0, 0.0, 1.0],
            [1.0, 1.0, 1.0, 0.0],
        ]
    )
)


def dm(pts, ids=None):
    pts = np.asarray(pts, dtype=float)
    if ids is None:
        ids = range(len(pts))
    return geo.DistanceMatrix.from_points(tuple(ids), pts)


class TestValidateDistanceMatrix:
    def test_all_zero_offdiagonal_accepted(self):
        d = geo.validate_distance_matrix(np.zeros((3, 3)), ids=(7, 8, 9))
        assert d.n == 3 and d.ids == (7, 8, 9)

    def test_asymmetric_rejected_with_pair(self):
        raw = np.zeros((2, 2))
        raw[0, 1] = 1.0
        raw[1, 0] = 2.0
        with pytest.raises(geo.AsymmetricDistanceError) as exc:
            geo.validate_distance_matrix(raw)
        assert exc.value.pair in {(0, 1), (1, 0)}

    def test_unit_right_triangle_accepted(self):
        # squared distances computed from the coordinates (0,0),(1,0),(0,1)
        raw = sq_dist_table(UNIT_RIGHT_TRI)
        assert sorted(raw[np.triu_indices(3, 1)]) == [1.0, 1.0, 2.0]
        d = geo.validate_distance_matrix(raw)
        assert d.n == 3

    def test_negative_entry_rejected(self):
        raw = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(geo.NegativeEntryError):
            geo.validate_distance_matrix(raw)

    def test_nonzero_diagonal_rejected(self):
        raw = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(geo.NonzeroDiagonalError) as exc:
            geo.validate_distance_matrix(raw)
        assert exc.value.pair == (0, 0)

    def test_non_square_rejected(self):
        with pytest.raises(geo.GeometryError):
            geo.validate_distance_matrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entry_rejected_with_pair(self, value):
        # inf passed every check and generalized_volume read nan; nan was
        # reported as an asymmetry
        raw = np.ones((3, 3)) - np.eye(3)
        raw[0, 2] = raw[2, 0] = value
        with pytest.raises(geo.NonFiniteEntryError, match=r"non-finite squared distance at \(7, 9\)") as exc:
            geo.validate_distance_matrix(raw, ids=(7, 8, 9))
        assert exc.value.pair == (7, 9)

    def test_ids_length_mismatch_rejected(self):
        with pytest.raises(geo.GeometryError, match="ids length"):
            geo.validate_distance_matrix(np.zeros((3, 3)), ids=(1, 2))

    def test_index_of_missing_id(self):
        d = geo.validate_distance_matrix(np.zeros((2, 2)), ids=(4, 5))
        assert d.index_of(5) == 1
        with pytest.raises(KeyError, match="node 6 not in distance matrix"):
            d.index_of(6)


class TestCayleyMengerDeterminant:
    def test_unit_right_triangle(self):
        d = dm(UNIT_RIGHT_TRI)
        # frozen value -4 confirmed by cofactor expansion of the bordered matrix
        bordered = [
            [0, 1, 1, 1],
            [1, 0, 1, 1],
            [1, 1, 0, 2],
            [1, 1, 2, 0],
        ]
        assert det_cofactor(bordered) == pytest.approx(-4.0, abs=1e-12)
        assert geo.cayley_menger_determinant(d) == pytest.approx(-4.0, abs=1e-12)

    def test_two_points_unit_distance(self):
        d = dm(np.array([[0.0], [1.0]]))
        bordered = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert det_cofactor(bordered) == pytest.approx(2.0, abs=1e-15)
        assert geo.cayley_menger_determinant(d) == pytest.approx(2.0, abs=1e-12)

    def test_one_node_rejected(self):
        with pytest.raises(geo.GeometryError, match="at least 2 nodes"):
            geo.cayley_menger_determinant(geo.validate_distance_matrix(np.zeros((1, 1))))

    def test_collinear_points_vanish(self):
        d = dm(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        assert geo.cayley_menger_determinant(d) == pytest.approx(0.0, abs=1e-12)

    def test_matches_cofactor_oracle_on_random_tables(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = rng.random((4, 3))
            d = dm(pts)
            bordered = np.ones((5, 5))
            bordered[0, 0] = 0.0
            bordered[1:, 1:] = d.sq_dist
            assert geo.cayley_menger_determinant(d) == pytest.approx(
                det_cofactor(bordered), rel=1e-9, abs=1e-12
            )


class TestCoefficient:
    def test_first_values(self):
        assert geo.cm_coefficient(1) == 2.0
        assert geo.cm_coefficient(2) == -16.0
        assert geo.cm_coefficient(3) == 288.0
        assert geo.cm_coefficient(4) == -9216.0

    def test_dimension_zero_rejected(self):
        with pytest.raises(geo.GeometryError, match="dimension must be >= 1"):
            geo.cm_coefficient(0)


class TestGeneralizedVolume:
    def test_unit_right_triangle(self):
        assert simplex_volume_coords(UNIT_RIGHT_TRI) == pytest.approx(0.5)
        assert geo.generalized_volume(dm(UNIT_RIGHT_TRI), 2) == pytest.approx(0.5, abs=1e-12)

    def test_equilateral_heron(self):
        # Heron: s = 3/2, A = sqrt(s (s-1)^3)
        s = 1.5
        heron = math.sqrt(s * (s - 1.0) ** 3)
        assert heron == pytest.approx(0.43301270189, abs=1e-10)
        assert geo.generalized_volume(dm(EQUILATERAL), 2) == pytest.approx(heron, rel=1e-12)

    def test_regular_tetrahedron(self):
        expected = 1.0 / (6.0 * math.sqrt(2.0))
        assert expected == pytest.approx(0.11785113, abs=1e-8)
        assert geo.generalized_volume(dm(REGULAR_TET), 3) == pytest.approx(expected, rel=1e-10)

    def test_not_realizable_raises(self):
        # violates the triangle inequality: sides 1, 1, 4
        raw = np.array([[0.0, 1.0, 16.0], [1.0, 0.0, 1.0], [16.0, 1.0, 0.0]])
        d = geo.validate_distance_matrix(raw)
        with pytest.raises(geo.NotRealizableError):
            geo.generalized_volume(d, 2)

    def test_wrong_node_count_rejected(self):
        with pytest.raises(geo.GeometryError):
            geo.generalized_volume(dm(UNIT_RIGHT_TRI), 3)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_volume_oracle_equivalence(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(1000):
            pts = rng.random((m + 1, m))
            expected = simplex_volume_coords(pts)
            got = geo.generalized_volume(dm(pts), m)
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-12)


class TestConvexHullInclusion:
    def test_centroid_inside(self):
        pts = np.vstack([EQUILATERAL, EQUILATERAL.mean(axis=0)])
        d = dm(pts)
        assert geo.convex_hull_inclusion(3, (0, 1, 2), d, 2) is geo.HullVerdict.INSIDE

    def test_outside_point_sub_areas(self):
        pts = np.vstack([UNIT_RIGHT_TRI, [[1.0, 1.0]]])
        # shoelace sub-areas of the three vertex replacements sum to 1.5 > 0.5
        subs = [
            simplex_volume_coords(np.array([[1, 1], [1, 0], [0, 1]], dtype=float)),
            simplex_volume_coords(np.array([[1, 1], [0, 0], [0, 1]], dtype=float)),
            simplex_volume_coords(np.array([[1, 1], [0, 0], [1, 0]], dtype=float)),
        ]
        assert sum(subs) == pytest.approx(1.5)
        d = dm(pts)
        assert geo.convex_hull_inclusion(3, (0, 1, 2), d, 2) is geo.HullVerdict.OUTSIDE

    def test_edge_midpoint_boundary(self):
        pts = np.vstack([UNIT_RIGHT_TRI, [[0.5, 0.0]]])
        d = dm(pts)
        assert geo.convex_hull_inclusion(3, (0, 1, 2), d, 2) is geo.HullVerdict.BOUNDARY

    def test_degenerate_simplex_raises(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 0.5]])
        d = dm(pts)
        with pytest.raises(geo.DegenerateSimplexError):
            geo.convex_hull_inclusion(3, (0, 1, 2), d, 2)

    def test_not_realizable_raises(self):
        with pytest.raises(geo.NotRealizableError):
            geo.convex_hull_inclusion(3, (0, 1, 2), NOT_EMBEDDABLE, 2)

    def test_coincident_nodes_raise(self):
        d = geo.validate_distance_matrix(np.zeros((4, 4)))
        with pytest.raises(geo.DegenerateSimplexError, match="coincide"):
            geo.convex_hull_inclusion(3, (0, 1, 2), d, 2)

    def test_hull_set_checks(self):
        d = dm(np.vstack([EQUILATERAL, EQUILATERAL.mean(axis=0)]))
        with pytest.raises(geo.GeometryError, match="must have 3 nodes"):
            geo.convex_hull_inclusion(3, (0, 1), d, 2)
        with pytest.raises(geo.GeometryError, match="own hull set"):
            geo.convex_hull_inclusion(2, (0, 1, 2), d, 2)

    @pytest.mark.parametrize("m", [2, 3])
    def test_agrees_with_halfspace_oracle(self, m):
        rng = np.random.default_rng(200 + m)
        checked = 0
        while checked < 1000:
            verts = random_simplex(rng, m)
            p = rng.random(m)
            loc = halfspace_location(p, verts, tol=1e-7)
            if loc == "boundary":
                continue  # oracle too close to a face to classify reliably
            d = dm(np.vstack([verts, p[None, :]]))
            got = geo.convex_hull_inclusion(m + 1, tuple(range(m + 1)), d, m)
            assert got.value == loc
            checked += 1


class TestBarycentricCoordinates:
    def test_centroid_of_equilateral(self):
        pts = np.vstack([EQUILATERAL, EQUILATERAL.mean(axis=0)])
        w = geo.barycentric_coordinates(3, (0, 1, 2), dm(pts), 2)
        np.testing.assert_allclose(w.weights, [1 / 3] * 3, atol=1e-12)

    def test_coincident_vertex_is_one_hot(self):
        pts = np.vstack([UNIT_RIGHT_TRI, UNIT_RIGHT_TRI[1]])
        w = geo.barycentric_coordinates(3, (0, 1, 2), dm(pts), 2)
        np.testing.assert_allclose(w.weights, [0.0, 1.0, 0.0], atol=1e-12)

    def test_quarter_point_unit_right_triangle(self):
        p = np.array([0.25, 0.25])
        oracle = barycentric_oracle(p, UNIT_RIGHT_TRI)
        np.testing.assert_allclose(oracle, [0.5, 0.25, 0.25], atol=1e-12)
        pts = np.vstack([UNIT_RIGHT_TRI, p[None, :]])
        w = geo.barycentric_coordinates(3, (0, 1, 2), dm(pts), 2)
        np.testing.assert_allclose(w.weights, [0.5, 0.25, 0.25], atol=1e-9)

    def test_outside_raises(self):
        pts = np.vstack([UNIT_RIGHT_TRI, [[1.0, 1.0]]])
        with pytest.raises(geo.OutsideHullError):
            geo.barycentric_coordinates(3, (0, 1, 2), dm(pts), 2)

    def test_degenerate_raises(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.5]])
        with pytest.raises(geo.DegenerateSimplexError):
            geo.barycentric_coordinates(3, (0, 1, 2), dm(pts), 2)

    def test_not_realizable_raises(self):
        with pytest.raises(geo.NotRealizableError):
            geo.barycentric_coordinates(3, (0, 1, 2), NOT_EMBEDDABLE, 2)

    def test_coincident_nodes_raise(self):
        d = geo.validate_distance_matrix(np.zeros((4, 4)))
        with pytest.raises(geo.DegenerateSimplexError, match="coincide"):
            geo.barycentric_coordinates(3, (0, 1, 2), d, 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reconstruction_property(self, m):
        rng = np.random.default_rng(300 + m)
        for _ in range(200):
            verts = random_simplex(rng, m)
            p, _ = random_interior_point(rng, verts)
            d = dm(np.vstack([verts, p[None, :]]))
            w = geo.barycentric_coordinates(m + 1, tuple(range(m + 1)), d, m)
            assert w.weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(w.weights >= 0.0) and np.all(w.weights <= 1.0)
            np.testing.assert_allclose(w.weights @ verts, p, atol=1e-8)

    def test_partition_of_volume(self):
        rng = np.random.default_rng(17)
        for m in (1, 2, 3):
            for _ in range(200):
                verts = random_simplex(rng, m)
                p, _ = random_interior_point(rng, verts)
                pts = np.vstack([verts, p[None, :]])
                d = dm(pts)
                base = geo.generalized_volume(d.restrict(tuple(range(m + 1))), m)
                total = 0.0
                for k in range(m + 1):
                    ids = [m + 1] + [j for j in range(m + 1) if j != k]
                    total += geo.generalized_volume(d.restrict(ids), m)
                assert total == pytest.approx(base, rel=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        verts = random_simplex(rng, 2)
        p, _ = random_interior_point(rng, verts)
        pts = np.vstack([verts, p[None, :]])
        d = dm(pts)
        w1 = geo.barycentric_coordinates(3, (0, 1, 2), d, 2)
        scaled = geo.DistanceMatrix(d.ids, d.sq_dist * 123.456**2)
        w2 = geo.barycentric_coordinates(3, (0, 1, 2), scaled, 2)
        np.testing.assert_allclose(w1.weights, w2.weights, atol=1e-9)


class TestVerdict:
    """The one outside / strictly-inside rule that every inclusion test reads."""

    def test_nan_volume_is_neither(self):
        outside, inside = geo._verdict(np.array([1.0, 1.0]), np.array([[np.nan, 0.5, 0.5], [0.2, 0.3, 0.5]]))
        np.testing.assert_array_equal(outside, [False, False])
        np.testing.assert_array_equal(inside, [False, True])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_drop_one_table(self, n):
        # an integer table at every size: the set-up prefilter reads n = 1 for m = 1
        table = geo._drop_one(n)
        assert table.shape == (n, n - 1) and table.dtype.kind == "i"
        assert not table.flags.writeable
        for i, row in enumerate(table):
            assert list(row) == [j for j in range(n) if j != i]
        assert geo._drop_one(n) is table


class TestBatchInclusion:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_scalar_verdicts(self, m):
        from itertools import combinations

        rng = np.random.default_rng(400 + m)
        cands = rng.random((10, m))
        sq_cand = sq_dist_table(cands)
        combos = np.array(list(combinations(range(10), m + 1)))
        # a random point, and the candidates' centroid, which many subsets hold
        for p in (rng.random(m) * 0.8 + 0.1, cands.mean(axis=0)):
            sq_to_l = np.array([np.sum((c - p) ** 2) for c in cands])
            flags, _ = geo.batch_strict_inclusion(sq_cand, sq_to_l, combos, m)
            d = dm(np.vstack([cands, p[None, :]]))
            located = 0
            for combo, flag in zip(combos, flags):
                try:
                    verdict = geo.convex_hull_inclusion(10, tuple(combo), d, m)
                    expected = verdict is geo.HullVerdict.INSIDE
                except geo.DegenerateSimplexError:
                    expected = False
                assert flag == expected
                # the coordinate oracle, wherever it is clear of a face
                loc = halfspace_location(p, cands[combo], tol=1e-7)
                if loc != "boundary" and simplex_volume_coords(cands[combo]) > 1e-9:
                    assert flag == (loc == "inside")
                    located += 1
            assert located > len(combos) // 2
        assert flags.any() and not flags.all()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_weights_of_accepted_subsets(self, m):
        # the accepting pass gives, per flagged subset, the bytes that
        # barycentric_coordinates gives on the same squared distances
        from itertools import combinations

        rng = np.random.default_rng(500 + m)
        cands = rng.random((9, m))
        p = cands.mean(axis=0)
        sq = sq_dist_table(np.vstack([cands, p[None, :]]))
        combos = np.array(list(combinations(range(9), m + 1)))
        flags, weights = geo.batch_strict_inclusion(sq[:9, :9], sq[9, :9], combos, m)
        assert flags.any() and weights.shape == (flags.sum(), m + 1)
        d = geo.DistanceMatrix(tuple(range(10)), sq)
        for combo, w in zip(combos[flags], weights):
            assert w.tobytes() == geo.barycentric_coordinates(9, tuple(combo), d, m).weights.tobytes()

    def test_empty_combos(self):
        flags, weights = geo.batch_strict_inclusion(np.zeros((0, 0)), np.zeros(0), np.zeros((0, 3), dtype=int), 2)
        assert flags.shape == (0,) and weights.shape == (0, 3)
