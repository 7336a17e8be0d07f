import math
from importlib import resources
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
import scipy.stats

from dilocsim import deployment as dep
from dilocsim import geometry as geo
from helpers import (
    FIFTY_NODE_ANCHORS,
    reference_first_inside_subset,
    reference_hopeless,
    reference_triangulate_sensor,
    sq_dist_table,
)

RIGHT_ANCHORS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

DEMO_TRIANGULATION = {
    4: (1, 5, 7),
    5: (4, 6, 7),
    6: (2, 5, 7),
    7: (3, 4, 6),
}


class TestProbabilityFormulas:
    def test_radius_for_99_percent_at_unit_density(self):
        # density 1 per unit area, 99 percent triangulation needs R ~ 5.52
        r = dep.min_radius_for_probability(1.0, 0.99)
        assert abs(r - 5.52) <= 0.01

    def test_bound_vanishes_with_radius(self):
        assert dep.triangulation_probability_bound(1.0, 1e-9) < 1e-30

    def test_bound_value_at_2_76(self):
        p = dep.triangulation_probability_bound(1.0, 2.76)
        assert 0.9899 < p < 0.9901

    def test_bound_monotone_in_gamma_and_r(self):
        # grid kept below float saturation of 1 - exp(-x)
        rs = np.linspace(0.5, 2.2, 12)
        gs = np.linspace(0.2, 1.4, 12)
        for g in gs:
            vals = [dep.triangulation_probability_bound(g, r) for r in rs]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for r in rs:
            vals = [dep.triangulation_probability_bound(g, r) for g in gs]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_radius_bound_roundtrip(self):
        for eps in (0.5, 0.9, 0.99, 0.9999):
            R = dep.min_radius_for_probability(1.7, eps)
            assert dep.triangulation_probability_bound(1.7, R / 2.0) >= eps - 1e-12

    def test_radius_vanishes_with_eps(self):
        assert dep.min_radius_for_probability(1.0, 1e-12) < 0.15

    def test_density_roundtrip(self):
        for gamma in (0.3, 1.0, 4.2):
            R = dep.min_radius_for_probability(gamma, 0.99)
            back = dep.min_density_for_probability(R, 0.99)
            assert back == pytest.approx(gamma, abs=1e-9)

    def test_density_example(self):
        assert dep.min_density_for_probability(5.52, 0.99) == pytest.approx(1.0, abs=2e-3)

    def test_density_scaling(self):
        g1 = dep.min_density_for_probability(10.0, 0.5)
        g2 = dep.min_density_for_probability(20.0, 0.5)
        assert g1 > 0
        assert g2 == pytest.approx(g1 / 4.0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(dep.DeploymentError):
            dep.min_radius_for_probability(1.0, 1.0)
        with pytest.raises(dep.DeploymentError):
            dep.min_density_for_probability(0.0, 0.5)
        with pytest.raises(dep.DeploymentError):
            dep.triangulation_probability_bound(-1.0, 1.0)

    # nan fails every comparison, and inf passes "> 0": both used to give nan
    # (or R = 0 for an infinite density) instead of an error
    @pytest.mark.parametrize("gamma, r", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_bound_rejects_non_finite(self, gamma, r):
        with pytest.raises(dep.DeploymentError):
            dep.triangulation_probability_bound(gamma, r)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_min_radius_rejects_non_finite(self, gamma):
        with pytest.raises(dep.DeploymentError):
            dep.min_radius_for_probability(gamma, 0.5)

    @pytest.mark.parametrize("R", [math.nan, math.inf])
    def test_min_density_rejects_non_finite(self, R):
        with pytest.raises(dep.DeploymentError):
            dep.min_density_for_probability(R, 0.5)


class TestPoissonField:
    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_intensity_rejected(self, gamma):
        # numpy's Poisson draw raised a bare ValueError for these
        with pytest.raises(dep.DeploymentError):
            dep.generate_poisson_field(2, gamma, RIGHT_ANCHORS, seed=0)

    def test_zero_intensity_limit(self):
        f = dep.generate_poisson_field(2, 1e-12, RIGHT_ANCHORS, seed=3)
        assert f.n_sensors == 0

    def test_degenerate_anchors_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(dep.DegenerateAnchorsError):
            dep.generate_poisson_field(2, 1.0, flat, seed=0)

    def test_counts_match_poisson_law(self):
        # mean gamma * volume = 50 * 0.5 = 25 per deployment
        lam = 25.0
        counts = np.array(
            [dep.generate_poisson_field(2, 50.0, RIGHT_ANCHORS, seed=s).n_sensors for s in range(1000)]
        )
        total = counts.sum()
        lo = scipy.stats.poisson.ppf(0.0005, lam * 1000)
        hi = scipy.stats.poisson.ppf(0.9995, lam * 1000)
        assert lo <= total <= hi
        # chi-square goodness of fit against the Poisson pmf, tail-binned
        edges = list(range(15, 36))
        observed = np.array(
            [np.sum(counts < edges[0])]
            + [np.sum(counts == k) for k in edges]
            + [np.sum(counts > edges[-1])]
        )
        probs = np.array(
            [scipy.stats.poisson.cdf(edges[0] - 1, lam)]
            + [scipy.stats.poisson.pmf(k, lam) for k in edges]
            + [scipy.stats.poisson.sf(edges[-1], lam)]
        )
        stat, pvalue = scipy.stats.chisquare(observed, probs * len(counts))
        assert pvalue > 0.001

    def test_all_points_inside_hull(self):
        f = dep.generate_poisson_field(2, 200.0, RIGHT_ANCHORS, seed=11)
        assert f.n_sensors > 0
        w = f._anchor_barycentric(f.true_sensor_matrix())
        assert w.min() > 0.0
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_seed_determinism(self):
        a = dep.generate_poisson_field(2, 30.0, RIGHT_ANCHORS, seed=42)
        b = dep.generate_poisson_field(2, 30.0, RIGHT_ANCHORS, seed=42)
        c = dep.generate_poisson_field(2, 30.0, RIGHT_ANCHORS, seed=43)
        assert np.array_equal(a.true_sensor_matrix(), b.true_sensor_matrix())
        assert not np.array_equal(a.true_sensor_matrix(), c.true_sensor_matrix())
        ta = dep.triangulate_all(a)
        tb = dep.triangulate_all(b)
        for l in a.sensor_ids:
            assert ta[l].neighbor_ids == tb[l].neighbor_ids
            assert np.array_equal(ta[l].weights.weights, tb[l].weights.weights)

    def test_three_dimensional_field(self):
        anchors = np.array(
            [[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 5.0]]
        )
        f = dep.generate_poisson_field(3, 2.0, anchors, seed=9)
        assert f.m == 3
        w = f._anchor_barycentric(f.true_sensor_matrix())
        assert w.min() > 0.0


class TestSensorField:
    def test_id_layout(self):
        f = dep.demo_network()
        assert list(f.anchor_ids) == [1, 2, 3]
        assert list(f.sensor_ids) == [4, 5, 6, 7]
        assert f.n_nodes == 7

    def test_distances_are_exact(self):
        f = dep.demo_network()
        pts = np.vstack([f.anchor_block(), f.true_sensor_matrix()])
        expected = sq_dist_table(pts)
        for l in range(1, 8):
            np.testing.assert_allclose(f.sq_distances_from(l), expected[l - 1], atol=0)

    def test_collinear_anchors_rejected(self):
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(dep.DegenerateAnchorsError):
            dep.SensorField(2, flat, np.zeros((0, 2)))

    def test_outside_sensor_rejected(self):
        with pytest.raises(dep.DeploymentError):
            dep.SensorField(2, RIGHT_ANCHORS, np.array([[2.0, 2.0]]))

    def test_submatrix_ids(self):
        f = dep.demo_network()
        d = f.distance_submatrix((5, 4, 7))
        assert d.ids == (5, 4, 7)
        assert d.sq_dist[0, 1] == pytest.approx(1.0 + 0.16)


class TestTriangulation:
    def test_demo_network_sets(self):
        f = dep.demo_network()
        tris = dep.triangulate_all(f)
        assert {l: t.neighbor_ids for l, t in tris.items()} == DEMO_TRIANGULATION

    def test_demo_weights_reconstruct_positions(self):
        f = dep.demo_network()
        for l, t in dep.triangulate_all(f).items():
            neigh = np.array([f.true_coords(k) for k in t.neighbor_ids])
            np.testing.assert_allclose(
                t.weights.weights @ neigh, f.true_coords(l), atol=1e-9
            )

    def test_eq3_properties_reverified(self):
        f = dep.generate_poisson_field(2, 1.0, RIGHT_ANCHORS * 7.0, seed=5)
        assert f.n_sensors >= 10
        for l, t in dep.triangulate_all(f).items():
            assert l not in t.neighbor_ids
            assert len(t.neighbor_ids) == f.m + 1
            local = f.distance_submatrix((l,) + t.neighbor_ids)
            verdict = geo.convex_hull_inclusion(l, t.neighbor_ids, local, f.m)
            assert verdict is geo.HullVerdict.INSIDE
            assert geo.generalized_volume(local.restrict(t.neighbor_ids), f.m) > 0
            assert math.sqrt(local.sq_dist.max()) <= t.comm_radius + 1e-12
            assert t.comm_radius == pytest.approx(2 * t.radius)

    def test_lone_sensor_falls_back_to_anchors(self):
        centroid = RIGHT_ANCHORS.mean(axis=0)
        f = dep.SensorField(2, RIGHT_ANCHORS, centroid[None, :])
        t = dep.triangulate_sensor(f, 4)
        assert t.neighbor_ids == (1, 2, 3)

    def test_diverged_on_invalid_field(self):
        f = dep.SensorField(
            2, RIGHT_ANCHORS, np.array([[5.0, 5.0]]), validate=False
        )
        with pytest.raises(dep.DivergedError):
            dep.triangulate_sensor(f, 4, r0=0.5)

    @pytest.mark.parametrize("key", ["r0", "growth"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_schedule_rejected(self, key, value):
        # a nan radius or growth never reaches the stopping test, and an
        # infinite one triangulates at radius inf
        with pytest.raises(dep.DeploymentError):
            dep.triangulate_sensor(dep.demo_network(), 4, **{key: value})

    def test_non_sensor_rejected(self):
        with pytest.raises(dep.DeploymentError):
            dep.triangulate_sensor(dep.demo_network(), 1)

    def test_can_triangulate_demo(self):
        f = dep.demo_network()
        assert dep.can_triangulate(f, 5, 1.5)
        assert not dep.can_triangulate(f, 5, 1.0)

    def test_protocol_radius_within_2_76_for_99_percent(self):
        # unit-density deployment: at least 99% of sensors with an uncensored
        # radius-2.76 disk triangulate before the schedule passes 2.76
        side = math.sqrt(4 * 3000 / math.sqrt(3))
        anchors = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * math.sqrt(3) / 2]])
        f = dep.generate_poisson_field(2, 1.0, anchors, seed=4)
        pts = f.true_sensor_matrix()

        def edge_clear(a, b):
            ab = b - a
            t = (pts - a) @ ab / (ab @ ab)
            proj = a + t[:, None] * ab
            return np.linalg.norm(pts - proj, axis=1)

        interior = (
            (edge_clear(anchors[0], anchors[1]) >= 2.76)
            & (edge_clear(anchors[1], anchors[2]) >= 2.76)
            & (edge_clear(anchors[2], anchors[0]) >= 2.76)
        )
        ids = np.array(list(f.sensor_ids))[interior]
        assert len(ids) > 2000
        radii = np.array([dep.triangulate_sensor(f, int(l)).radius for l in ids])
        assert np.mean(radii <= 2.76) >= 0.99


TETRAHEDRON = np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 0.0], [3.0, 5.2, 0.0], [3.0, 1.7, 4.9]])


def _lattice_field():
    # sensors on the unit lattice: many candidate pairs tie in length, and
    # sensors sit exactly on edges of the subsets around them
    anchors = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]])
    sensors = [(i, j) for i in range(1, 11) for j in range(1, 11) if i + j <= 10]
    return dep.SensorField(2, anchors, np.array(sensors, dtype=float))


EQUIVALENCE_FIELDS = {
    "demo": dep.demo_network,
    # the deterministic-poisson preset's field generator, seeds 0-19
    **{
        f"fifty-{s}": (lambda s=s: dep.generate_poisson_field(2, 1.0, FIFTY_NODE_ANCHORS, s))
        for s in range(20)
    },
    **{
        f"spatial-{s}": (lambda s=s: dep.generate_poisson_field(3, 0.6, TETRAHEDRON, s))
        for s in (0, 2)
    },
    "line": lambda: dep.generate_poisson_field(1, 3.0, np.array([[0.0], [10.0]]), seed=2),
    "lattice": _lattice_field,
}


class TestSearchMatchesReference:
    """The lazy set-up search returns what exhaustive enumeration returns."""

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_FIELDS))
    def test_triangulation_sets_identical(self, name):
        field = EQUIVALENCE_FIELDS[name]()
        r0 = dep._default_r0(field)
        for l, t in dep.triangulate_all(field).items():
            radius, theta = reference_triangulate_sensor(field, l, r0)
            assert (t.radius, t.neighbor_ids) == (radius, theta)
            local = field.distance_submatrix((l,) + theta)
            ref = geo.barycentric_coordinates(l, theta, local, field.m).weights
            assert t.weights.weights.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ["demo", "fifty-0", "fifty-7", "spatial-0", "line", "lattice"])
    def test_can_triangulate_agrees(self, name):
        field = EQUIVALENCE_FIELDS[name]()
        r0 = dep._default_r0(field)
        for l in list(field.sensor_ids)[:6]:
            for k in range(0, 12, 2):
                r = r0 * 1.25**k
                expected = reference_first_inside_subset(field, l, r)[0] is not None
                assert dep.can_triangulate(field, l, r) == expected


def _collinear_field():
    # sensor 4's candidates lie on its own line up to radius 3, so its frame
    # spans one dimension; (10, 2) and (10, 8) leave the line at radius 3
    anchors = np.array([[0.0, 0.0], [20.0, 0.0], [10.0, 17.0]])
    sensors = [(10.0, 5.0), (11.0, 5.0), (9.0, 5.0), (12.0, 5.0), (8.0, 5.0), (10.0, 2.0), (10.0, 8.0)]
    return dep.SensorField(2, anchors, np.array(sensors))


class TestWalkBranches:
    """Branches of the set-up walk that the fields above do not reach."""

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_FIELDS))
    def test_pair_budget_cut_keeps_sets(self, name, monkeypatch):
        field = EQUIVALENCE_FIELDS[name]()
        calls = []  # (length array, index asked, index returned)
        tie_end = dep._tie_end

        def spy(length, i):
            stop = tie_end(length, i)
            calls.append((length, i, stop))
            return stop

        # eight third vertices a batch: planar batches are cut after a few edges
        monkeypatch.setattr(dep, "_PAIR_BUDGET", 8)
        monkeypatch.setattr(dep, "_tie_end", spy)
        r0 = dep._default_r0(field)
        for l, t in dep.triangulate_all(field).items():
            assert (t.radius, t.neighbor_ids) == reference_triangulate_sensor(field, l, r0)
        # a cut asks for an end at or before the one its batch already had;
        # the next batch asks for one past it
        cuts = sum(a[0] is b[0] and b[1] <= a[2] for a, b in zip(calls, calls[1:]))
        assert (cuts > 0) == (field.m == 2)

    def test_degenerate_frame_round_is_walked(self, monkeypatch):
        field = _collinear_field()
        frames, walked = [], []
        local_frame, tie_end = dep._local_frame, dep._tie_end

        def frame_spy(sq_cand, sq_to_l, m):
            coords, frame_err = local_frame(sq_cand, sq_to_l, m)
            frames.append((len(sq_to_l), frame_err))
            return coords, frame_err

        def walk_spy(length, i):
            walked.append(len(frames))
            return tie_end(length, i)

        monkeypatch.setattr(dep, "_local_frame", frame_spy)
        monkeypatch.setattr(dep, "_tie_end", walk_spy)
        t = dep.triangulate_sensor(field, 4)
        assert (t.radius, t.neighbor_ids) == reference_triangulate_sensor(field, 4, dep._default_r0(field))
        assert {9, 10} & set(t.neighbor_ids)  # the set leaves the line
        flat = [(k, n_c) for k, (n_c, err) in enumerate(frames, 1) if math.isinf(err)]
        assert [n_c for _, n_c in flat] == [4]  # one round: the four candidates on the line
        assert flat[0][0] in walked  # its pairs were walked, not skipped


def _random_cases():
    """(candidate points, sensor point) pairs drawn at random, m = 1, 2, 3."""
    rng = np.random.default_rng(2024)
    for m, n in ((1, 8), (2, 9), (3, 8)):
        for _ in range(150):
            yield rng.random((n, m)), rng.random(m) * 1.2 - 0.1


def _near_degenerate_cases():
    """(candidate points, sensor point) pairs built on the edge of degeneracy."""
    rng = np.random.default_rng(2025)
    tri = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]])
    extra = rng.random((5, 2))
    mid = (tri[0] + tri[1]) / 2
    normal = np.array([-0.1, 1.0]) / math.hypot(0.1, 1.0)
    for off in (1e-10, 0.0, -1e-10):
        yield np.vstack([tri, extra]), mid + off * normal
    # the sensor outside the triangle alone, within, near and beyond the
    # slack of edge (0, 1): the near pair across it has a vertex between
    for off in (-1e-7, -1e-5, -1e-4):
        yield tri, mid + off * normal
    # directions 1.5e-5 apart, within the slack (2e-5) of the next one but
    # not of the one after: two chained near pairs
    fan = 1.5e-5 * np.arange(3)
    yield np.vstack([np.column_stack([np.cos(fan), np.sin(fan)]), [0.0, 1.0]]), np.zeros(2)
    tet = TETRAHEDRON / 6.0
    face = tet[:3].mean(axis=0)
    for off in (1e-10, 0.0, -1e-10):
        yield np.vstack([tet, rng.random((3, 3))]), face + off * np.array([0.0, 0.0, 1.0])
    # collinear candidates, with the sensor on their line or just off it
    t = np.sort(rng.random(7)) * 3.0 - 1.0
    line = np.column_stack([t, 0.3 * t + 0.1])
    for l_point in ([0.2, 0.16], [0.2, 0.16 + 1e-9], [5.0, 1.6]):
        yield line, np.array(l_point)
    # coplanar candidates
    uv = rng.random((7, 2))
    plane = np.column_stack([uv, 0.2 * uv[:, 0] - 0.4 * uv[:, 1] + 0.3])
    for l_point in ([0.5, 0.5, 0.2], [0.5, 0.5, 0.2 + 1e-9]):
        yield plane, np.array(l_point)
    # a candidate 1e-6 from the sensor, or on it
    for m in (1, 2, 3):
        l_point = np.full(m, 0.5)
        for gap in (1e-6, 0.0):
            near = l_point + gap * np.ones(m) / math.sqrt(m)
            yield np.vstack([near, rng.random((6, m))]), l_point
    # lattice points: tied edge lengths, sensor on lattice edges or at a centre
    grid2 = np.array([(i, j) for i in range(-1, 2) for j in range(-1, 2) if (i, j) != (0, 0)], float)
    for l_point in ([0.0, 0.0], [0.5, 0.5], [0.5, 0.0]):
        yield grid2, np.array(l_point)
    grid3 = np.array(
        [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1) if (i, j, k) != (0, 0, 0)],
        float,
    )
    for l_point in ([0.0, 0.0, 0.0], [0.5, 0.5, 0.5]):
        yield grid3, np.array(l_point)
    yield np.array([[1.0], [2.0], [-1.0], [1.0 + 1e-10]]), np.array([1e-10])


def _search_skips(points, l_point):
    """Whether set-up skips the round whose candidates are ``points``, its
    sensor at ``l_point``: a skipped round walks no candidate pair."""
    m = points.shape[1]
    field = dep.SensorField(m, points[: m + 1], np.vstack([points[m + 1 :], l_point]), validate=False)
    search = dep._Search(field, field.n_nodes)
    with mock.patch.object(dep, "_tie_end", wraps=dep._tie_end) as walk:
        search.first_inside(search.count(math.inf))
    return not walk.called


def _prefilter_verdicts(points, l_point):
    m = points.shape[1]
    # candidates in the search's order (distance from l, ties by index), so
    # that the search builds the same frame as this test
    points = points[np.argsort(sq_dist_table(np.vstack([l_point, points]))[0, 1:], kind="stable")]
    sq = sq_dist_table(np.vstack([l_point, points]))
    sq_cand, sq_to_l = sq[1:, 1:], sq[0, 1:]
    n = len(points)
    coords, frame_err = dep._local_frame(sq_cand, sq_to_l, m)
    combos = np.array(list(combinations(range(n), m + 1)))
    accepted, _ = geo.batch_strict_inclusion(sq_cand, sq_to_l, combos, m)
    diam = sq_cand[combos[:, :, None], combos[:, None, :]].max(axis=(1, 2))
    slack = dep._slack(diam, sq_to_l.max(), m, frame_err)
    rows = np.arange(len(combos))
    passed = dep._surrounds(coords, combos[:, :-1], rows, combos[:, -1], slack)
    round_slack = float(dep._slack(sq_cand.max(), sq_to_l.max(), m, frame_err))
    hopeless = reference_hopeless(coords, round_slack)
    if m < 3:
        assert _search_skips(points, l_point) == hopeless
    if m == 2 and not hopeless:
        # the planar walk draws third vertices from the arc opposite each edge
        arcs, by_angle = dep._planar_round(coords, round_slack)
        rank = np.argsort(by_angle)
        for e0, e1, third in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            wide, lo, count = arcs(combos[:, e0], combos[:, e1], slack)
            drawn = wide | ((rank[combos[:, third]] - lo) % n < count)
            assert drawn[passed].all()
    return accepted, passed, hopeless


class TestPrefilterConservative:
    """Every subset the kernel accepts passes the prefilter; no skipped round
    holds a subset that passes it."""

    def test_random_small_sets(self):
        counts = np.zeros(3, dtype=int)  # accepted, passed, skipped rounds
        for points, l_point in _random_cases():
            accepted, passed, hopeless = _prefilter_verdicts(points, l_point)
            assert not (accepted & ~passed).any()
            assert not (hopeless and passed.any())
            counts += (accepted.sum(), passed.sum(), hopeless)
        # on generic points the prefilter is tight and rounds do get skipped
        assert counts[0] > 0 and counts[1] < 2 * counts[0] and counts[2] > 50

    def test_near_degenerate_sets(self):
        for points, l_point in _near_degenerate_cases():
            accepted, passed, hopeless = _prefilter_verdicts(points, l_point)
            assert not (accepted & ~passed).any()
            assert not (hopeless and passed.any())

    def test_skips_only_when_outside_hull(self):
        rng = np.random.default_rng(5)
        pts = rng.random((9, 2)) + np.array([0.0, 1.0])
        assert _prefilter_verdicts(pts, np.array([0.5, 0.0]))[2]
        assert not _prefilter_verdicts(pts, pts.mean(axis=0))[2]


class TestOnePassSetUp:
    """Set-up takes each sensor's weights from the kernel pass that accepts
    its set: no distance table is rebuilt and no volume is computed again."""

    @pytest.mark.parametrize("name", ["demo", "spatial-0", "line"])
    def test_no_second_volume_pass(self, name, monkeypatch):
        field = EQUIVALENCE_FIELDS[name]()
        calls = []

        def forbidden(what):
            return lambda *args, **kwargs: calls.append(what)

        for holder in (dep, geo):
            monkeypatch.setattr(holder, "barycentric_coordinates", forbidden("barycentric_coordinates"))
        monkeypatch.setattr(dep.SensorField, "distance_submatrix", forbidden("distance_submatrix"))
        tris = dep.triangulate_all(field)
        assert calls == []
        assert len(tris) == field.n_sensors
        for l, t in tris.items():
            assert t.weights.neighbor_ids == t.neighbor_ids and t.weights.sensor_id == l
            assert t.weights.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestPlanarWalkScaling:
    def test_last_round_scores_few_triangles(self, monkeypatch):
        # the boundary sensor with the largest radius of a density-6 field
        # (M = 278): its last round sees 253 candidates and walks all their
        # pairs before its hit, which holds an anchor; scoring each pair
        # against every candidate would take about n_c^3 / 2 entries
        field = dep.generate_poisson_field(2, 6.0, FIFTY_NODE_ANCHORS, seed=3)
        tris = dep.triangulate_all(field)
        l = max(tris, key=lambda k: (tris[k].radius, -k))
        scored = []
        surrounds = dep._surrounds

        def counting(coords, verts, s, q, slack):
            scored.append((len(coords), len(s)))
            return surrounds(coords, verts, s, q, slack)

        monkeypatch.setattr(dep, "_surrounds", counting)
        assert dep.triangulate_sensor(field, l).neighbor_ids == tris[l].neighbor_ids
        n_c = max(n for n, _ in scored)
        last = sum(k for n, k in scored if n == n_c)
        assert n_c >= 200 and min(tris[l].neighbor_ids) in field.anchor_ids
        assert 0 < last < n_c**2 < n_c**3 / 100


class TestSectorCheck:
    def test_one_per_quadrant_true(self):
        center = np.array([0.5, 0.5])
        offsets = np.array([[0.1, 0.1], [-0.1, 0.1], [0.1, -0.1], [-0.1, -0.1]])
        sensors = np.vstack([center, center + offsets])
        f = dep.SensorField(2, RIGHT_ANCHORS * 4.0, sensors + 1.0)
        assert dep.sector_sufficiency_check(f, 4, 0.5)

    def test_half_plane_false(self):
        center = np.array([0.5, 0.5])
        offsets = np.array([[0.1, 0.05], [0.12, 0.01], [0.05, 0.1], [0.02, 0.12]])
        sensors = np.vstack([center, center + offsets])
        f = dep.SensorField(2, RIGHT_ANCHORS * 4.0, sensors + 1.0)
        assert not dep.sector_sufficiency_check(f, 4, 0.5)

    def test_unsupported_dimension(self):
        anchors = np.array([[0.0], [4.0]])
        f = dep.SensorField(1, anchors, np.array([[1.0], [2.0]]))
        with pytest.raises(dep.UnsupportedDimensionError):
            dep.sector_sufficiency_check(f, 3, 1.0)

    def test_sector_implies_triangulation(self):
        # sufficiency cross-check on many random deployments
        side = 8.0
        anchors = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * math.sqrt(3) / 2]])
        r = 2.0
        tested = 0
        for seed in range(1000):
            f = dep.generate_poisson_field(2, 1.0, anchors, seed=seed)
            if f.n_sensors == 0:
                continue
            l = int(np.random.default_rng(seed).integers(f.m + 2, f.n_nodes + 1))
            if dep.sector_sufficiency_check(f, l, r):
                tested += 1
                assert dep.can_triangulate(f, l, r)
        assert tested > 300


class TestFieldFiles:
    def test_roundtrip(self, tmp_path):
        f = dep.generate_poisson_field(2, 20.0, RIGHT_ANCHORS, seed=77)
        path = tmp_path / "field.field"
        dep.save_field(f, path)
        g = dep.load_field(path)
        assert g.m == f.m and g.density == f.density
        np.testing.assert_array_equal(g.anchor_block(), f.anchor_block())
        np.testing.assert_array_equal(g.true_sensor_matrix(), f.true_sensor_matrix())

    def test_packaged_demo_field_matches_builtin(self):
        path = resources.files("dilocsim").joinpath("data/demo7.field")
        g = dep.load_field(str(path))
        f = dep.demo_network()
        np.testing.assert_array_equal(g.anchor_block(), f.anchor_block())
        np.testing.assert_array_equal(g.true_sensor_matrix(), f.true_sensor_matrix())

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.field"
        p.write_text("m\t2\ndensity\t-\n1\tanchor\t0\n")
        with pytest.raises(dep.FieldLoadError):
            dep.load_field(p)

    @pytest.mark.parametrize("m, records", [(0, "1\tanchor\n"), (-1, "")], ids=["zero", "negative"])
    def test_nonpositive_dimension_rejected(self, tmp_path, m, records):
        # records that pass the per-line checks, so only m itself is wrong
        p = tmp_path / "bad.field"
        p.write_text(f"m\t{m}\ndensity\t-\n{records}")
        with pytest.raises(dep.FieldLoadError):
            dep.load_field(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(dep.FieldLoadError):
            dep.load_field(tmp_path / "nope.field")

    def test_invalid_geometry_rejected(self, tmp_path):
        p = tmp_path / "bad.field"
        p.write_text(
            "m\t2\ndensity\t-\n"
            "1\tanchor\t0\t0\n2\tanchor\t1\t0\n3\tanchor\t0\t1\n"
            "4\tsensor\t5\t5\n"
        )
        with pytest.raises(dep.FieldLoadError):
            dep.load_field(p)
