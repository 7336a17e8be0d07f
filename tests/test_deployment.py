import math
import tracemalloc
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
    hull_distance,
    pivot_widening,
    reference_first_inside_subset,
    reference_hopeless,
    reference_triangulate_sensor,
    sq_dist_table,
    strictly_surrounds,
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

    def test_non_finite_anchor_rejected(self):
        # numpy's Poisson draw raised a bare ValueError (lam is NaN)
        anchors = RIGHT_ANCHORS.copy()
        anchors[2, 1] = math.nan
        with pytest.raises(dep.DeploymentError, match="non-finite"):
            dep.generate_poisson_field(2, 1.0, anchors, seed=0)

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, value):
        # a nan sensor passed every check, and its set-up radius grew to inf
        sensors = np.array([[0.2, 0.2], [0.3, value]])
        with pytest.raises(dep.DeploymentError, match="node 5 has a non-finite coordinate"):
            dep.SensorField(2, RIGHT_ANCHORS, sensors)
        anchors = RIGHT_ANCHORS.copy()
        anchors[1, 0] = value
        with pytest.raises(dep.DeploymentError, match="node 2 has a non-finite coordinate"):
            dep.SensorField(2, anchors, sensors[:1])

    def test_anchor_shape_rejected(self):
        with pytest.raises(dep.DeploymentError, match="need 3 anchors with 2 coordinates each"):
            dep.SensorField(2, RIGHT_ANCHORS[:2], np.array([[0.2, 0.2]]))

    @pytest.mark.parametrize("node_id", [0, 8])
    def test_node_id_out_of_range(self, node_id):
        with pytest.raises(KeyError, match="out of range 1..7"):
            dep.demo_network().sq_distances_from(node_id)

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

    @pytest.mark.parametrize("density", [None, 1.0])
    def test_field_without_sensors_sets_up_empty(self, density):
        # the explicit field used to raise "field has no sensors" from the default r0
        field = dep.SensorField(2, RIGHT_ANCHORS, np.zeros((0, 2)), density=density)
        assert dep.triangulate_all(field) == {}

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
        with pytest.raises(dep.DeploymentError):
            dep.can_triangulate(dep.demo_network(), 1, 1.0)

    def test_can_triangulate_demo(self):
        f = dep.demo_network()
        assert dep.can_triangulate(f, 5, 1.5)
        assert not dep.can_triangulate(f, 5, 1.0)
        assert not dep.can_triangulate(f, 5, 0.1)  # fewer than m + 1 candidates

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.0, -1.5])
    def test_invalid_radius_rejected(self, r):
        # nan and inf used to answer True, and -1.5 as 1.5, since the search squares r
        f = dep.demo_network()
        with pytest.raises(dep.DeploymentError, match="radius"):
            dep.can_triangulate(f, 5, r)
        with pytest.raises(dep.DeploymentError, match="radius"):
            dep.sector_sufficiency_check(f, 5, r)

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
# the regular tetrahedron with 6-unit edges of the setup-poisson benchmark
REGULAR_TETRAHEDRON = np.array(
    [[0.0, 0.0, 0.0], [6.0, 0.0, 0.0], [3.0, 3.0 * math.sqrt(3.0), 0.0], [3.0, math.sqrt(3.0), 2.0 * math.sqrt(6.0)]]
)


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
    # the setup-poisson benchmark's 3-D field (M = 37)
    "spatial-bench": lambda: dep.generate_poisson_field(3, 1.5, REGULAR_TETRAHEDRON, 3),
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


def _spy_walks(monkeypatch):
    """Patch the walk to record each walk as [whether its subsets fit one
    band, prefiltered batches]; returns the list."""
    walks, surrounds, walk = [], dep._surrounds, dep._Search._walk

    def wrapped(search, sq_cand, coords, pivots, *args):
        n, m = len(sq_cand), search.m
        walks.append([pivots.size * math.comb(n - 1, m) <= dep._WALK_BATCH, 0])
        return walk(search, sq_cand, coords, pivots, *args)

    def surrounds_spy(*args):
        walks[-1][1] += 1
        return surrounds(*args)

    monkeypatch.setattr(dep._Search, "_walk", wrapped)
    monkeypatch.setattr(dep, "_surrounds", surrounds_spy)
    return walks


class TestWalkBranches:
    """Branches of the set-up walk that the fields above do not reach."""

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_FIELDS))
    def test_pair_budget_cut_keeps_sets(self, name, monkeypatch):
        field = EQUIVALENCE_FIELDS[name]()
        # two subsets a batch: walks run several batches in every dimension
        monkeypatch.setattr(dep, "_WALK_BATCH", 2)
        walks = _spy_walks(monkeypatch)
        r0 = dep._default_r0(field)
        for l, t in dep.triangulate_all(field).items():
            assert (t.radius, t.neighbor_ids) == reference_triangulate_sensor(field, l, r0)
        assert max(batches for one_band, batches in walks if not one_band) > 1

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_FIELDS))
    def test_walks_fit_one_batch(self, name, monkeypatch):
        # at the default batch size, every walked round of these fields is
        # one band, with one prefiltered batch
        field = EQUIVALENCE_FIELDS[name]()
        walks = _spy_walks(monkeypatch)
        dep.triangulate_all(field)
        assert walks and all(walk == [True, 1] for walk in walks)

    def test_band_splits_one_position(self, monkeypatch):
        # bands of 8 subsets, fewer than the C(t, 2) ranks that close at any
        # 3-D position t >= 5: a band takes part of a position
        field = EQUIVALENCE_FIELDS["spatial-0"]()
        monkeypatch.setattr(dep, "_WALK_BATCH", 8)
        split, unrank = [], dep._unrank

        def spy(m, ranks, n):
            # the walk unranks each subset's first two positions: a rank
            # past 8 there sits in a position of more than 9 ranks
            split.append(m == 2 and int(ranks.max(initial=0)) > 8)
            return unrank(m, ranks, n)

        monkeypatch.setattr(dep, "_unrank", spy)
        r0 = dep._default_r0(field)
        for l, t in dep.triangulate_all(field).items():
            assert (t.radius, t.neighbor_ids) == reference_triangulate_sensor(field, l, r0)
        assert any(split)

    @pytest.mark.parametrize("name", ["line", "demo", "lattice", "fifty-3", "spatial-0"])
    def test_walk_tests_each_needed_subset_once(self, name, monkeypatch):
        # a subset through a pivot is the pivot and m of its other candidates;
        # every one that has a new member and is no wider than the answer must
        # reach the prefilter, none twice in one walk, however the bands cut them
        field = EQUIVALENCE_FIELDS[name]()
        walks, walk, test = [], dep._Search._walk, dep._Search._test

        def walk_spy(search, sq_cand, coords, pivots, n_old, *args):
            walks.append((sq_cand, pivots, n_old, []))
            found = walk(search, sq_cand, coords, pivots, n_old, *args)
            walks[-1] += (None if found is None else search._index[list(found[0])],)
            return found

        def test_spy(search, sq_cand, coords, members, *args):
            walks[-1][3].append(members)
            return test(search, sq_cand, coords, members, *args)

        def keys(subsets, n):
            # (pivot, the rest in ascending order) as one integer
            rest = np.sort(subsets[:, 1:], axis=1)
            return np.ravel_multi_index((subsets[:, 0], *rest.T), (n,) * subsets.shape[1])

        monkeypatch.setattr(dep._Search, "_walk", walk_spy)
        monkeypatch.setattr(dep._Search, "_test", test_spy)
        for batch in (2, 5, 8):  # bands of 8 split 3-D positions, as in test_band_splits_one_position
            monkeypatch.setattr(dep, "_WALK_BATCH", batch)
            dep.triangulate_all(field)
        # some walk ran several bands, each with its own prefilter call
        assert any(len(tested) > 1 for _, _, _, tested, _ in walks)
        m = field.m
        for sq_cand, pivots, n_old, tested, answer in walks:
            n = len(sq_cand)
            tested = keys(np.concatenate(tested or [np.zeros((0, m + 1), dtype=int)]), n)
            assert np.unique(tested).size == tested.size
            bound = math.inf if answer is None else sq_cand[np.ix_(answer, answer)].max()
            positions = np.array(list(combinations(range(n - 1), m)), dtype=int).reshape(-1, m)
            for v in pivots:
                rest = np.delete(np.arange(n), v)[positions]
                subsets = np.column_stack([np.full(len(rest), v), rest])
                diam = sq_cand[subsets[:, :, None], subsets[:, None, :]].max(axis=(1, 2))
                needed = (subsets.max(axis=1) >= n_old) & (diam <= bound)
                assert np.isin(keys(subsets[needed], n), tested).all()

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_colex_order(self, m):
        def colex(n, m):
            return sorted(combinations(range(n), m), key=lambda c: c[::-1])

        n = 31  # C(31, 1) > 30 rows
        order = colex(n, m)
        members = dep._unrank(m, np.arange(len(order)), n)
        assert len(members) == m
        assert [tuple(int(p[i]) for p in members) for i in range(len(order))] == order
        if m:  # ranks [C(t, m), C(t + 1, m)) close at position t
            for t in range(n):
                assert all(c[-1] == t for c in order[math.comb(t, m) : math.comb(t + 1, m)])
        for rows in (1, 5, 30):
            # as many whole positions as fit, and each row's first m - 1
            # members ranked among the (m - 1)-combinations
            table, rank = dep._colex(m, rows)
            assert [tuple(int(p) for p in row) for row in table] == order[: len(table)]
            assert len(table) <= rows and (m == 0 or math.comb(int(table.max()) + 2, m) > rows)
            if m:
                lower = colex(n, m - 1)
                assert [lower.index(tuple(int(p) for p in row[:-1])) for row in table] == rank.tolist()

    def test_pivots_without_the_nearest_hull_point(self, monkeypatch):
        # without the search for an empty half-space along the hull's nearest
        # point, the directions away from each candidate still give a
        # half-space that every accepted subset meets
        field = EQUIVALENCE_FIELDS["spatial-0"]()
        expected = {l: t.neighbor_ids for l, t in dep.triangulate_all(field).items()}
        monkeypatch.setattr(dep, "_beyond", lambda pts, w: False)
        assert {l: t.neighbor_ids for l, t in dep.triangulate_all(field).items()} == expected

    def test_degenerate_frame_round_is_walked(self, monkeypatch):
        field = _collinear_field()
        frames, walked = [], []
        local_frame = dep._local_frame

        def frame_spy(column, sq_to_l, m):
            coords, frame_err = local_frame(column, sq_to_l, m)
            frames.append((len(sq_to_l), frame_err))
            return coords, frame_err

        def walk_spy(walk):
            def wrapped(search, *args):
                walked.append(len(frames))
                return walk(search, *args)

            return wrapped

        monkeypatch.setattr(dep, "_local_frame", frame_spy)
        monkeypatch.setattr(dep._Search, "_walk", walk_spy(dep._Search._walk))
        t = dep.triangulate_sensor(field, 4)
        assert (t.radius, t.neighbor_ids) == reference_triangulate_sensor(field, 4, dep._default_r0(field))
        assert {9, 10} & set(t.neighbor_ids)  # the set leaves the line
        flat = [(k, n_c) for k, (n_c, err) in enumerate(frames, 1) if math.isinf(err)]
        assert [n_c for _, n_c in flat] == [4]  # one round: the four candidates on the line
        assert flat[0][0] in walked  # its subsets were walked, not skipped


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
    # slack of edge (0, 1)
    for off in (-1e-7, -1e-5, -1e-4):
        yield tri, mid + off * normal
    # directions 1.5e-5 apart, within the slack (2e-5) of the next one but
    # not of the one after
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
    sensor at ``l_point``: a skipped round walks no pivot and tests no subset."""
    m = points.shape[1]
    field = dep.SensorField(m, points[: m + 1], np.vstack([points[m + 1 :], l_point]), validate=False)
    search = dep._Search(field, field.n_nodes)
    with mock.patch.object(search, "_walk", wraps=search._walk) as walk, mock.patch.object(
        dep, "_surrounds", wraps=dep._surrounds
    ) as tested:
        search.first_inside(math.inf)
    return not (walk.called or tested.called)


def _prefilter_verdicts(points, l_point):
    m = points.shape[1]
    # candidates in the search's order (distance from l, ties by index), so
    # that the search builds the same frame as this test
    points = points[np.argsort(sq_dist_table(np.vstack([l_point, points]))[0, 1:], kind="stable")]
    sq = sq_dist_table(np.vstack([l_point, points]))
    sq_cand, sq_to_l = sq[1:, 1:], sq[0, 1:]
    n = len(points)
    coords, frame_err = dep._local_frame(lambda p: sq_cand[:, p], sq_to_l, m)
    combos = np.array(list(combinations(range(n), m + 1)))
    accepted, _ = geo.batch_strict_inclusion(sq_cand, sq_to_l, combos, m)
    diam = sq_cand[combos[:, :, None], combos[:, None, :]].max(axis=(1, 2))
    slack = dep._slack(diam, sq_to_l.max(), m, frame_err)
    rows = np.arange(len(combos))
    passed = dep._surrounds(coords, combos[:, :-1], rows, combos[:, -1], slack)
    hopeless = reference_hopeless(coords, frame_err)
    # every subset the kernel accepts has a vertex in the pivots' half-space,
    # and the search skips exactly when it holds none, which needs l
    # outside the candidates' hull by more than the widening
    pivots = dep._pivots(coords, frame_err)
    assert np.isin(combos[accepted], pivots).any(axis=1).all()
    assert _search_skips(points, l_point) == (pivots.size == 0)
    assert hopeless or pivots.size
    # where _pivots asks it (a finite frame, no candidate at l), the sweep
    # answers as _beyond does. It shows l inside only where it is, and then
    # no direction puts every candidate beyond l: not even at w = 0, so at
    # no widening either. It shows an empty half-space only where _beyond
    # finds one.
    w, shown = pivot_widening(coords, frame_err), None
    if math.isfinite(w):
        shown = dep._sweep(coords, w)
    if shown is False:
        assert strictly_surrounds(coords) and hull_distance(coords) <= 1e-9 * math.sqrt(sq_to_l.max())
        assert not dep._beyond(coords, 0.0)
    if shown:
        assert dep._beyond(coords, w) and hull_distance(coords) > w
    return accepted, passed, hopeless, shown


class TestPrefilterConservative:
    """Every subset the kernel accepts passes the prefilter and has a pivot;
    a round is skipped exactly when it has no pivot, and only when the
    sensor lies outside its candidates' hull by more than the widening. The
    prefilter does not decide the skip: nearly degenerate rounds outside
    the hull (the collinear case at [5.0, 1.6]) pass subsets the kernel
    rejects."""

    def test_random_small_sets(self):
        counts = np.zeros(3, dtype=int)  # accepted, passed, skipped rounds
        skipped = {1: 0, 2: 0, 3: 0}
        shown = {(m, verdict): 0 for m in (1, 2, 3) for verdict in (False, True, None)}
        for points, l_point in _random_cases():
            accepted, passed, hopeless, verdict = _prefilter_verdicts(points, l_point)
            assert not (accepted & ~passed).any()
            assert not (hopeless and accepted.any())
            counts += (accepted.sum(), passed.sum(), hopeless)
            skips = _search_skips(points, l_point)
            assert skips == hopeless  # on generic points, every round that may be skipped is
            skipped[points.shape[1]] += skips
            shown[points.shape[1], verdict] += 1
        # on generic points the prefilter is tight and rounds do get skipped,
        # in every dimension
        assert counts[0] > 0 and counts[1] < 2 * counts[0] and counts[2] > 50
        assert min(skipped.values()) > 30
        # the directions show l inside on a line and in the plane, and an
        # empty half-space in the plane; never either in 3-D
        assert min(shown[1, False], shown[2, False], shown[2, True]) > 30
        assert shown[3, None] == 150

    def test_near_degenerate_sets(self):
        shown = []
        for points, l_point in _near_degenerate_cases():
            accepted, passed, hopeless, verdict = _prefilter_verdicts(points, l_point)
            assert not (accepted & ~passed).any()
            assert not (hopeless and accepted.any())
            shown.append(verdict)
        assert False in shown and True in shown

    def test_skips_only_when_outside_hull(self):
        rng = np.random.default_rng(5)
        pts = rng.random((9, 2)) + np.array([0.0, 1.0])
        assert _prefilter_verdicts(pts, np.array([0.5, 0.0]))[2]
        assert not _prefilter_verdicts(pts, pts.mean(axis=0))[2]

    def test_singular_corral_skips_nothing(self, monkeypatch):
        # the segment from (1, 0) to (-1, 0.5) passes 0.24 from l, so the
        # second row joins the corral; a failed solve there answers False
        pts = np.array([[1.0, 0.0], [-1.0, 0.5]])
        assert dep._beyond(pts, 0.01)

        def singular(*args):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        assert not dep._beyond(pts, 0.01)

    def test_swept_rounds_run_no_search(self, monkeypatch):
        # where the directions answer, _pivots follows no Wolfe path
        calls, beyond = [], dep._beyond
        monkeypatch.setattr(dep, "_beyond", lambda pts, w: calls.append(1) or beyond(pts, w))
        searched = {False: 0, True: 0, None: 0}
        for points, l_point in _random_cases():
            coords = points - l_point
            del calls[:]
            dep._pivots(coords, 0.0)
            searched[dep._sweep(coords, pivot_widening(coords))] += len(calls)
        assert searched[False] == searched[True] == 0 and searched[None] > 0


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


def _duplicate_sensor_field(anchors, n, seed):
    """n sensors in the anchor simplex, the last a copy of the first: the
    last sensor's nearest candidate sits on it, so every candidate is a pivot."""
    w = np.random.default_rng(seed).exponential(size=(n, len(anchors)))
    pts = (w / w.sum(axis=1, keepdims=True)) @ anchors
    return dep.SensorField(len(anchors) - 1, anchors, np.vstack([pts, pts[:1]]))


def _counting_pivots(monkeypatch):
    """Patch ``_pivots`` to record the pivot count of every round; returns the list."""
    counts, pivots = [], dep._pivots

    def spy(coords, frame_err):
        found = pivots(coords, frame_err)
        counts.append(found.size)
        return found

    monkeypatch.setattr(dep, "_pivots", spy)
    return counts


class TestSetUpSize:
    """Set-up refuses what it cannot do: dimensions above 3, and rounds whose
    arrays could pass the byte budget, before any array is allocated."""

    def test_four_dimensions_refused(self):
        anchors = np.vstack([np.zeros(4), 6.0 * np.eye(4)])
        field = dep.SensorField(4, anchors, np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 1.0, 1.0], [2.0, 1.0, 1.0, 0.5]]))
        with pytest.raises(dep.UnsupportedDimensionError):
            dep.triangulate_sensor(field, 6)
        with pytest.raises(dep.UnsupportedDimensionError):
            dep.can_triangulate(field, 6, 10.0)

    @pytest.mark.parametrize("name", ["demo", "spatial-0", "line"])
    def test_round_past_budget_raises(self, name, monkeypatch):
        field = EQUIVALENCE_FIELDS[name]()
        l = field.m + 2
        counts = _counting_pivots(monkeypatch)
        t = dep.triangulate_sensor(field, l)
        n_c, k = dep._Search(field, l).count(t.radius), counts[-1]
        # the round that found the set is the first with n_c candidates: its
        # table is checked before it is built, its walk once its k pivots are known
        message = rf"sensor {l}: the set-up round at radius {t.radius:.6g} over {n_c} candidates"
        for budget in (dep._round_bytes(n_c, field.m) - 1, dep._round_bytes(n_c, field.m, k) - 1):
            monkeypatch.setattr(dep, "_SETUP_BYTES", budget)
            with pytest.raises(dep.DeploymentError, match=message):
                dep.triangulate_sensor(field, l)
            with pytest.raises(dep.DeploymentError, match=message):
                dep.can_triangulate(field, l, t.radius)
        monkeypatch.setattr(dep, "_SETUP_BYTES", dep._round_bytes(n_c, field.m, k))
        again = dep.triangulate_sensor(field, l)
        assert (again.radius, again.neighbor_ids) == (t.radius, t.neighbor_ids)

    @pytest.mark.parametrize(
        "make, sensors",
        [
            # the boundary sensor with the largest radius of a planar density-6
            # field reaches an anchor in its last round, over 253 candidates;
            # sensors 4 and 9 walk their smallest round in one batch
            (lambda: dep.generate_poisson_field(2, 6.0, FIFTY_NODE_ANCHORS, seed=3), [191, 4]),
            (EQUIVALENCE_FIELDS["spatial-bench"], [5, 11, 23, 9]),
            (lambda: _duplicate_sensor_field(FIFTY_NODE_ANCHORS, 60, 1), [63]),
            (lambda: _duplicate_sensor_field(REGULAR_TETRAHEDRON, 24, 1), [29]),
            # on a line every position holds one subset, so a window spans the most positions
            (lambda: _duplicate_sensor_field(np.array([[0.0], [10.0]]), 60, 1), [63]),
        ],
        ids=["planar", "spatial", "planar-every-candidate-a-pivot", "every-candidate-a-pivot", "line"],
    )
    def test_round_bytes_bound_the_arrays(self, make, sensors, monkeypatch):
        # small batches, so that the n_c^2 and k n_c terms carry the bound
        monkeypatch.setattr(dep, "_WALK_BATCH", 32)
        monkeypatch.setattr(dep, "_KERNEL_BATCH", 16)
        counts = _counting_pivots(monkeypatch)
        walks = _spy_walks(monkeypatch)
        field = make()
        for l in sensors:
            search = dep._Search(field, l)
            for n_c in (field.m + 2, field.m + 4, field.n_nodes // 2, field.n_nodes - 1):
                radius = 1.000001 * math.sqrt(search.sq_to_l[n_c - 1])
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    search.first_inside(radius)
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                assert 0 < peak <= dep._round_bytes(search.count(radius), field.m, counts[-1])
        # the smallest rounds are one band; the others walk several
        assert {one_band for one_band, _ in walks} == {True, False}


class TestCoincidentSensors:
    """A sensor's coincident twin sits on it: every candidate is then a
    pivot, and the twin sets no scale for the default r0."""

    def test_twin_in_a_degenerate_frame(self):
        # sensor 5's candidates up to radius 2 are its twin and three points
        # on one line through it: a degenerate frame with a candidate at l
        anchors = np.array([[0.0, 0.0, 0.0], [16.0, 0.0, 0.0], [0.0, 16.0, 0.0], [0.0, 0.0, 16.0]])
        sensors = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [2.0, 1.0, 1.0], [3.0, 1.0, 1.0], [4.0, 4.0, 3.0]])
        field = dep.SensorField(3, anchors, sensors)
        t = dep.triangulate_sensor(field, 5, r0=0.5)
        assert (t.radius, t.neighbor_ids) == reference_triangulate_sensor(field, 5, 0.5)

    def test_twin_heavy_field_has_a_default_r0(self):
        # every sensor has a twin, and the twins lie on a line through an anchor
        field = dep.SensorField(2, RIGHT_ANCHORS, np.array([[0.2, 0.2], [0.2, 0.2], [0.3, 0.3], [0.3, 0.3]]))
        r0 = dep._default_r0(field)
        assert r0 == pytest.approx(math.hypot(0.1, 0.1) / 2.0)
        for l, t in dep.triangulate_all(field).items():
            assert (t.radius, t.neighbor_ids) == reference_triangulate_sensor(field, l, r0)

    def test_all_nodes_coincide(self):
        field = dep.SensorField(2, np.zeros((3, 2)), np.zeros((2, 2)), validate=False)
        with pytest.raises(dep.DeploymentError, match="coincide"):
            dep._default_r0(field)


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

    def test_no_node_within_r(self):
        assert not dep.sector_sufficiency_check(dep.demo_network(), 4, 1e-3)

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
