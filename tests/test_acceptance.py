"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Each test prints a [PASS]/[FAIL] line naming its criterion (visible with
pytest -s or in captured output on failure). Criterion 8 dominates the
runtime at roughly five minutes; everything else is seconds.
"""

import math
from contextlib import contextmanager

import numpy as np

from dilocsim import cli
from dilocsim import deployment as dep
from dilocsim import engine as eng
from dilocsim import geometry as geo
from dilocsim import random_env as renv
from dilocsim import system as sysm
from helpers import (
    anchor_coupled_50_node_field,
    effective_biases,
    halfspace_location,
    random_interior_point,
    random_simplex,
    simplex_volume_coords,
    uniform_50_node_field,
)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {text}")
        raise
    print(f"[PASS] criterion {num}: {text}")


def build(field):
    tris = dep.triangulate_all(field)
    sys_m = sysm.build_system_matrices(field, tris)
    anchors = sysm.AnchorBlock(field.anchor_block())
    return sys_m, anchors


def test_criterion_1_deployment_bound():
    with criterion(1, "communication radius for 99% triangulation at unit density"):
        r = dep.min_radius_for_probability(1.0, 0.99)
        assert abs(r - 5.52) <= 0.01


def test_criterion_2_monte_carlo_triangulation():
    with criterion(2, "Monte-Carlo triangulation success rate at radius 2.76"):
        radius = 2.76
        # deployment sized so at least 10,000 sensors keep their whole test
        # disk inside the hull (the sector bound presumes an uncensored disk)
        side = math.sqrt(4.0 * 12600.0 / math.sqrt(3.0))
        anchors = np.array(
            [[0.0, 0.0], [side, 0.0], [side / 2.0, side * math.sqrt(3.0) / 2.0]]
        )
        field = dep.generate_poisson_field(2, 1.0, anchors, seed=0)
        pts = field.true_sensor_matrix()

        def edge_clearance(a, b):
            ab = b - a
            t = (pts - a) @ ab / (ab @ ab)
            proj = a + t[:, None] * ab
            return np.linalg.norm(pts - proj, axis=1)

        interior = (
            (edge_clearance(anchors[0], anchors[1]) >= radius)
            & (edge_clearance(anchors[1], anchors[2]) >= radius)
            & (edge_clearance(anchors[2], anchors[0]) >= radius)
        )
        ids = np.array(list(field.sensor_ids))[interior][:10_000]
        assert len(ids) == 10_000
        successes = sum(dep.can_triangulate(field, int(l), radius) for l in ids)
        rate = successes / len(ids)
        p = dep.triangulation_probability_bound(1.0, radius)
        sigma = math.sqrt(p * (1.0 - p) / len(ids))
        assert rate >= p - 3.0 * sigma


def test_criterion_3_geometry_oracle_suite():
    with criterion(3, "distance-only geometry vs coordinate oracles, m in {1,2,3}"):
        for m in (1, 2, 3):
            rng = np.random.default_rng(1000 + m)
            hull_checked = 0
            for k in range(1000):
                verts = random_simplex(rng, m)
                expected = simplex_volume_coords(verts)
                d_verts = geo.DistanceMatrix.from_points(tuple(range(m + 1)), verts)
                got = geo.generalized_volume(d_verts, m)
                assert abs(got - expected) <= 1e-8 * max(expected, 1e-12)
                p, _ = random_interior_point(rng, verts)
                d_all = geo.DistanceMatrix.from_points(
                    tuple(range(m + 2)), np.vstack([verts, p[None, :]])
                )
                w = geo.barycentric_coordinates(m + 1, tuple(range(m + 1)), d_all, m)
                assert np.abs(w.weights @ verts - p).max() <= 1e-8
                if m >= 2:
                    q = rng.random(m)
                    loc = halfspace_location(q, verts, tol=1e-7)
                    if loc != "boundary":  # skip points within eps of a face
                        d_q = geo.DistanceMatrix.from_points(
                            tuple(range(m + 2)), np.vstack([verts, q[None, :]])
                        )
                        verdict = geo.convex_hull_inclusion(
                            m + 1, tuple(range(m + 1)), d_q, m
                        )
                        assert verdict.value == loc
                        hull_checked += 1
            if m >= 2:
                assert hull_checked > 500


def test_criterion_4_diloc_exactness():
    with criterion(4, "exact convergence on the 7-node fixture and 20 random 50-node fields"):
        cases = [dep.demo_network()] + [uniform_50_node_field(s) for s in range(20)]
        for field in cases:
            sys_m, anchors = build(field)
            xstar = sysm.exact_locations_oracle(sys_m, anchors)
            truth = field.true_sensor_matrix()
            rho = sysm.spectral_radius(sys_m.P)
            # a stop at step tolerance s leaves the iterate within
            # s * rho / (1 - rho) of the limit; pick s for 1e-8 agreement
            step_tol = 0.5e-8 * (1.0 - rho)
            trace = eng.run_to_convergence(
                eng.initial_state(anchors, sys_m.M, seed=1),
                sys_m,
                anchors,
                step_tol=step_tol,
                max_iters=100_000,
                oracle=truth,
            )
            assert trace.converged_at is not None and trace.converged_at <= 100_000
            assert trace.oracle_errors[-1] < 1e-6
            assert np.abs(trace.final_state - xstar).max() < 1e-8
            fit = trace.decay_rate_estimate()
            assert fit is not None and abs(fit - rho) <= 0.05


def test_criterion_5_relaxation_invariance():
    with criterion(5, "relaxed iteration limits match across alpha, alpha=1 bitwise"):
        for field in (dep.demo_network(), uniform_50_node_field(3)):
            sys_m, anchors = build(field)
            rho = sysm.spectral_radius(sys_m.P)
            finals = {}
            for alpha in (0.2, 0.5, 1.0):
                J = (1.0 - alpha) * np.eye(sys_m.M) + alpha * sys_m.P.toarray()
                assert np.max(np.abs(np.linalg.eigvals(J))) < 1.0
                step_tol = 0.2e-8 * alpha * (1.0 - rho)
                trace = eng.run_to_convergence(
                    eng.initial_state(anchors, sys_m.M, seed=2),
                    sys_m,
                    anchors,
                    mode="diloc_rel",
                    alpha=alpha,
                    step_tol=step_tol,
                    max_iters=400_000,
                )
                assert trace.converged_at is not None
                finals[alpha] = trace.final_state
            for alpha in (0.2, 0.5):
                assert np.abs(finals[alpha] - finals[1.0]).max() < 1e-8
            a = eng.initial_state(anchors, sys_m.M, seed=4)
            b = eng.initial_state(anchors, sys_m.M, seed=4)
            for _ in range(50):
                a = eng.diloc_step(a, sys_m, anchors)
                b = eng.diloc_rel_step(b, sys_m, anchors, alpha=1.0)
            assert np.array_equal(a.X, b.X)


def test_criterion_6_complexity_accounting():
    with criterion(6, "per-sensor counters: m+1 messages, 2m+1 operations"):
        # planar fixture
        sys_m, anchors = build(dep.demo_network())
        trace = eng.run_to_convergence(
            eng.initial_state(anchors, sys_m.M, seed=0),
            sys_m,
            anchors,
            step_tol=0.0,
            max_iters=25,
        )
        assert trace.per_sensor_messages == 3 == sys_m.m + 1
        assert trace.per_sensor_flops == 5 == 2 * sys_m.m + 1
        assert trace.messages_total() == 3 * sys_m.M * 25
        # three-dimensional field exercises the m-dependence
        tet = np.array(
            [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]]
        )
        inner = np.array([[1.0, 1.0, 1.0], [0.8, 0.9, 1.1], [1.2, 0.7, 0.9]])
        field3 = dep.SensorField(3, tet, inner)
        sys3, anchors3 = build(field3)
        trace3 = eng.run_to_convergence(
            eng.initial_state(anchors3, sys3.M, seed=0),
            sys3,
            anchors3,
            step_tol=0.0,
            max_iters=10,
        )
        assert trace3.per_sensor_messages == 4 == sys3.m + 1
        assert trace3.per_sensor_flops == 7 == 2 * sys3.m + 1
        assert trace3.messages_total() == 4 * sys3.M * 10


def test_criterion_7_dlre_conditional_drift():
    with criterion(7, "one-step Monte-Carlo drift matches the mean recursion"):
        sys_m, anchors = build(dep.demo_network())
        bias_b, bias_p = renv.random_link_bias(sys_m, 0.05, seed=29)
        model = renv.NoiseModel(
            link_prob=0.8,
            channel_noise_var=0.02,
            bias_B=bias_b,
            bias_P=bias_p,
            fluct_var=0.03,
            seed=29,
        )
        s_b, s_p = effective_biases(model, sys_m)
        U = anchors.U
        A = np.eye(sys_m.M) - sys_m.P.toarray() - s_p
        rhs = (sys_m.B.toarray() + s_b) @ U
        alpha = 0.1
        t0 = 3
        d_star = renv.dlre_limit(sys_m, anchors, model).d_star
        x_star = sysm.exact_locations_oracle(sys_m, anchors)
        rng = np.random.default_rng(55)
        states = [d_star, x_star, rng.uniform(0.0, 6.0, size=d_star.shape)]
        draws = 10_000
        for x in states:
            expected = x - alpha * (A @ x - rhs)
            acc = np.zeros_like(x)
            sq = np.zeros_like(x)
            for i in range(draws):
                nxt = renv.dlre_step(
                    x, sys_m, anchors, model, lambda _t: alpha, t=t0, draw=i
                )
                acc += nxt
                sq += nxt**2
            mean = acc / draws
            se = np.sqrt(np.maximum(sq / draws - mean**2, 0.0)) / math.sqrt(draws)
            assert np.all(np.abs(mean - expected) <= 4.0 * se + 1e-12)


def test_criterion_8_dlre_limit():
    with criterion(8, "robust iteration reaches its limit under full randomness"):
        field = anchor_coupled_50_node_field()
        sys_m, anchors = build(field)
        xstar = sysm.exact_locations_oracle(sys_m, anchors)
        schedule = renv.make_weight_schedule("harmonic", 4.0)
        norm_ref = np.linalg.norm(xstar)
        rels = {1_000: [], 10_000: [], 100_000: []}
        for seed in range(20):
            model = renv.NoiseModel(
                link_prob=0.9,
                channel_noise_var=1.0 / sys_m.M,
                fluct_var=0.1,
                seed=seed,
            )
            limit = renv.dlre_limit(sys_m, anchors, model)
            assert limit.e_l == 0.0  # unbiased: the limit is the exact solution
            trace = renv.run_dlre(
                eng.initial_state(anchors, sys_m.M, seed=seed),
                sys_m,
                anchors,
                model,
                schedule,
                max_iters=100_000,
                snapshot_stride=1_000,
            )
            snaps = dict(trace.snapshots)
            for horizon in rels:
                rels[horizon].append(
                    float(np.linalg.norm(snaps[horizon] - limit.d_star) / norm_ref)
                )
        medians = {h: float(np.median(v)) for h, v in rels.items()}
        assert medians[100_000] < 0.05
        assert medians[1_000] > medians[10_000] > medians[100_000]


def test_criterion_9_bias_error_characterization():
    with criterion(9, "localization error vanishes with the weight bias"):
        sys_m, anchors = build(dep.demo_network())
        assert renv.dlre_limit(sys_m, anchors, renv.NoiseModel()).e_l == 0.0
        bias_b, bias_p = renv.random_link_bias(sys_m, 0.01, seed=41)
        errors = []
        for s in (1.0, 0.5, 0.25, 0.125):
            model = renv.NoiseModel(bias_B=s * bias_b, bias_P=s * bias_p)
            errors.append(renv.dlre_limit(sys_m, anchors, model).e_l)
        assert errors[0] > 0.0
        assert all(a > b for a, b in zip(errors, errors[1:]))


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical config and seed give byte-identical artifacts"):
        for preset, max_iters in (("deterministic-fixture", None), ("lf-cn", 1500)):
            text = cli.materialize_preset(preset)
            if max_iters is not None:
                text = text.replace("stop.max_iters = 5000", f"stop.max_iters = {max_iters}")
            cfg = cli.parse_config_text(text)
            out_a = tmp_path / preset / "a"
            out_b = tmp_path / preset / "b"
            cli.run_experiment(cfg, out_a)
            cli.run_experiment(cfg, out_b)
            for name in ("trace.tsv", "summary.json"):
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
            for series in sorted((out_a / "plot").iterdir()):
                assert series.read_bytes() == (out_b / "plot" / series.name).read_bytes()
