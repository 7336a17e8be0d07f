import dataclasses
import math

import numpy as np
import pytest

from dilocsim import deployment as dep
from dilocsim import engine as eng
from dilocsim import random_env as renv
from dilocsim import system as sysm
from helpers import MIS_SHAPED, MIS_SHAPED_ORACLE, mis_shaped, mis_shaped_oracle


def demo_setup():
    field = dep.demo_network()
    tris = dep.triangulate_all(field)
    sys = sysm.build_system_matrices(field, tris)
    anchors = sysm.AnchorBlock(field.anchor_block())
    xstar = sysm.exact_locations_oracle(sys, anchors)
    return field, sys, anchors, xstar


def random_setup(seed, side=9.0):
    anchors_xy = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * math.sqrt(3) / 2]])
    field = dep.generate_poisson_field(2, 1.0, anchors_xy, seed=seed)
    tris = dep.triangulate_all(field)
    sys = sysm.build_system_matrices(field, tris)
    anchors = sysm.AnchorBlock(field.anchor_block())
    xstar = sysm.exact_locations_oracle(sys, anchors)
    return field, sys, anchors, xstar


RESUMABLE = ("diloc", "diloc_rel", "dlre")


def _resumable_run(mode, initial, sys, anchors, steps, oracle):
    if mode == "dlre":
        model = renv.NoiseModel(link_prob=0.9, channel_noise_var=0.01, fluct_var=0.01, seed=4)
        schedule = renv.make_weight_schedule("harmonic", 1.0)
        return renv.run_dlre(
            initial, sys, anchors, model, schedule, max_iters=steps, snapshot_stride=5, oracle=oracle
        )
    return eng.run_to_convergence(
        initial, sys, anchors, mode=mode, alpha=0.5, step_tol=0.0, max_iters=steps,
        snapshot_stride=5, oracle=oracle,
    )


class TestSteps:
    def test_fixed_point(self):
        _, sys, anchors, xstar = demo_setup()
        state = eng.state_from_guess(anchors, xstar)
        new = eng.diloc_step(state, sys, anchors)
        np.testing.assert_allclose(new.X, xstar, atol=1e-12)
        assert new.t == 1

    def test_anchor_rows_never_change(self):
        # the anchors live only in the AnchorBlock: a stepped state holds the
        # M sensor rows and the iteration number, nothing else
        _, sys, anchors, _ = demo_setup()
        U = anchors.U.copy()
        state = eng.initial_state(anchors, sys.M, seed=3)
        for _ in range(25):
            state = eng.diloc_step(state, sys, anchors)
        assert [f.name for f in dataclasses.fields(state)] == ["X", "t"]
        assert state.X.shape == (sys.M, sys.m) and state.t == 25
        np.testing.assert_array_equal(anchors.U, U)

    def test_single_sensor_one_step_absorption(self):
        anchors_xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        field = dep.SensorField(2, anchors_xy, np.array([[0.3, 0.4]]))
        sys = sysm.build_system_matrices(field, dep.triangulate_all(field))
        anchors = sysm.AnchorBlock(field.anchor_block())
        state = eng.state_from_guess(anchors, np.array([[17.0, -4.0]]))
        new = eng.diloc_step(state, sys, anchors)
        np.testing.assert_allclose(new.X, [[0.3, 0.4]], atol=1e-12)

    def test_demo_converges_in_200_steps(self):
        _, sys, anchors, xstar = demo_setup()
        state = eng.initial_state(anchors, sys.M, seed=11)
        for _ in range(200):
            state = eng.diloc_step(state, sys, anchors)
        assert np.abs(state.X - xstar).max() < 1e-6

    def test_updates_stay_in_hull_when_started_inside(self):
        field, sys, anchors, _ = demo_setup()
        inside = np.tile(field.anchor_block().mean(axis=0), (sys.M, 1))
        state = eng.state_from_guess(anchors, inside)
        for _ in range(50):
            state = eng.diloc_step(state, sys, anchors)
            w = field._anchor_barycentric(state.X)
            assert w.min() > -1e-12

    def test_dimension_mismatch(self):
        _, sys, anchors, _ = demo_setup()
        bad = eng.state_from_guess(anchors, np.zeros((sys.M + 1, sys.m)))
        with pytest.raises(eng.DimensionMismatchError):
            eng.diloc_step(bad, sys, anchors)


class TestInputChecks:
    """Both drivers and both deterministic steps share one shape check."""

    @pytest.mark.parametrize("case", MIS_SHAPED)
    @pytest.mark.parametrize("mode", eng.MODES)
    def test_run_rejects_mis_shaped_inputs(self, case, mode):
        _, sys, anchors, _ = demo_setup()
        state, block = mis_shaped(sys, anchors, case)
        with pytest.raises(eng.DimensionMismatchError):
            eng.run_to_convergence(state, sys, block, mode=mode, alpha=0.5, max_iters=5)

    @pytest.mark.parametrize("case", MIS_SHAPED)
    def test_relaxed_step_rejects_mis_shaped_inputs(self, case):
        _, sys, anchors, _ = demo_setup()
        state, block = mis_shaped(sys, anchors, case)
        with pytest.raises(eng.DimensionMismatchError):
            eng.diloc_rel_step(state, sys, block, 0.5)

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2,)], ids=["three-columns", "one-column", "flat"])
    def test_guess_needs_one_column_per_coordinate(self, shape):
        # a guess with the wrong column count used to end in numpy's ValueError
        _, _, anchors, _ = demo_setup()
        with pytest.raises(eng.DimensionMismatchError, match="guess"):
            eng.state_from_guess(anchors, np.zeros(shape))

    def test_negative_step_tol_rejected(self):
        _, sys, anchors, _ = demo_setup()
        with pytest.raises(eng.EngineError, match="step_tol"):
            eng.run_to_convergence(eng.initial_state(anchors, sys.M), sys, anchors, step_tol=-1e-12)

    @pytest.mark.parametrize("mode", RESUMABLE)
    def test_negative_start_iteration_rejected(self, mode):
        # run_dlre reads the gain alpha(t) from initial.t: from t = -3 the
        # harmonic gains went -0.5, -1 and then a bare ZeroDivisionError
        _, sys, anchors, _ = demo_setup()
        start = eng.IterationState(eng.initial_state(anchors, sys.M).X, -3)
        with pytest.raises(eng.EngineError, match="initial iteration"):
            _resumable_run(mode, start, sys, anchors, 5, None)

    @pytest.mark.parametrize("case", MIS_SHAPED_ORACLE)
    @pytest.mark.parametrize("mode", eng.MODES)
    def test_run_rejects_mis_shaped_oracle(self, case, mode):
        # a single row used to broadcast against every sensor (final oracle
        # error 2.0 where the true one is about 3e-10); a row count that
        # differs ended in a bare numpy broadcasting error
        _, sys, anchors, xstar = demo_setup()
        oracle = mis_shaped_oracle(xstar, case)
        with pytest.raises(eng.DimensionMismatchError, match="oracle"):
            eng.run_to_convergence(
                eng.initial_state(anchors, sys.M), sys, anchors, mode=mode, alpha=0.5, max_iters=5, oracle=oracle
            )


class TestRelaxation:
    def test_alpha_one_bit_identical(self):
        _, sys, anchors, _ = demo_setup()
        a = eng.initial_state(anchors, sys.M, seed=5)
        b = eng.initial_state(anchors, sys.M, seed=5)
        for _ in range(40):
            a = eng.diloc_step(a, sys, anchors)
            b = eng.diloc_rel_step(b, sys, anchors, alpha=1.0)
        assert np.array_equal(a.X, b.X)

    def test_invalid_alpha(self):
        _, sys, anchors, _ = demo_setup()
        state = eng.initial_state(anchors, sys.M, seed=0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(eng.InvalidAlphaError):
                eng.diloc_rel_step(state, sys, anchors, alpha=bad)

    def test_fixed_point_for_every_alpha(self):
        _, sys, anchors, xstar = demo_setup()
        for alpha in (0.2, 0.5, 1.0):
            state = eng.state_from_guess(anchors, xstar)
            new = eng.diloc_rel_step(state, sys, anchors, alpha)
            np.testing.assert_allclose(new.X, xstar, atol=1e-12)

    def test_same_limit_as_plain_update(self):
        _, sys, anchors, xstar = demo_setup()
        state = eng.initial_state(anchors, sys.M, seed=9)
        trace = eng.run_to_convergence(
            state, sys, anchors, mode="diloc_rel", alpha=0.5, step_tol=1e-12
        )
        assert np.abs(trace.final_state - xstar).max() < 1e-8

    def test_relaxed_spectral_radius_below_one(self):
        _, sys, _, _ = demo_setup()
        rho = sysm.spectral_radius(sys.P)
        for alpha in (0.2, 0.5, 1.0):
            J = (1 - alpha) * np.eye(sys.M) + alpha * sys.P.toarray()
            rho_j = np.max(np.abs(np.linalg.eigvals(J)))
            assert rho_j < 1.0
            assert rho_j <= (1 - alpha) + alpha * rho + 1e-12


class TestRunToConvergence:
    def test_demo_run(self):
        _, sys, anchors, xstar = demo_setup()
        state = eng.initial_state(anchors, sys.M, seed=1)
        trace = eng.run_to_convergence(
            state, sys, anchors, step_tol=1e-10, oracle=xstar, seed=1
        )
        assert trace.converged_at is not None
        assert trace.oracle_errors[-1] < 1e-8
        assert trace.iterations == trace.converged_at
        assert trace.step_norms[-1] < 1e-10

    def test_non_convergence_reported_not_raised(self):
        _, sys, anchors, _ = demo_setup()
        state = eng.initial_state(anchors, sys.M, seed=1)
        trace = eng.run_to_convergence(state, sys, anchors, step_tol=0.0, max_iters=50)
        assert trace.converged_at is None
        assert trace.iterations == 50

    def test_counters(self):
        _, sys, anchors, _ = demo_setup()
        state = eng.initial_state(anchors, sys.M, seed=2)
        trace = eng.run_to_convergence(state, sys, anchors, max_iters=100, step_tol=1e-10)
        assert trace.per_sensor_messages == sys.m + 1
        assert trace.per_sensor_flops == 2 * sys.m + 1
        assert trace.messages_total() == (sys.m + 1) * sys.M * trace.iterations

    def test_relaxed_counters(self):
        # the blend adds two operations per sensor: 2m+3
        _, sys, anchors, _ = demo_setup()
        state = eng.initial_state(anchors, sys.M, seed=2)
        trace = eng.run_to_convergence(state, sys, anchors, mode="diloc_rel", alpha=0.5, max_iters=20)
        assert trace.per_sensor_messages == sys.m + 1
        assert trace.per_sensor_flops == 2 * sys.m + 3 == 7

    def test_outside_hull_start_converges(self):
        _, sys, anchors, xstar = demo_setup()
        # a deliberately terrible guess far outside the anchor hull
        guess = np.full((sys.M, sys.m), 250.0)
        trace = eng.run_to_convergence(
            eng.state_from_guess(anchors, guess), sys, anchors, step_tol=1e-12
        )
        assert np.abs(trace.final_state - xstar).max() < 1e-8

    def test_fixed_point_uniqueness(self):
        _, sys, anchors, xstar = demo_setup()
        # a step norm below s leaves the iterate within s * rho / (1 - rho)
        # of the limit, so run well past the tolerance being asserted
        tol = 1e-11
        finals = []
        for seed in (3, 4):
            trace = eng.run_to_convergence(
                eng.initial_state(anchors, sys.M, seed=seed),
                sys,
                anchors,
                step_tol=tol / 20.0,
            )
            finals.append(trace.final_state)
        assert np.abs(finals[0] - finals[1]).max() < 2 * tol
        assert np.abs(finals[0] - xstar).max() < 2 * tol

    def test_limits_agree_across_alphas(self):
        _, sys, anchors, _ = demo_setup()
        finals = {}
        for alpha in (0.2, 0.5, 1.0):
            trace = eng.run_to_convergence(
                eng.initial_state(anchors, sys.M, seed=6),
                sys,
                anchors,
                mode="diloc_rel",
                alpha=alpha,
                step_tol=1e-12,
            )
            finals[alpha] = trace.final_state
        for alpha in (0.2, 0.5):
            assert np.abs(finals[alpha] - finals[1.0]).max() < 1e-8

    def test_decay_rate_tracks_spectral_radius(self):
        _, sys, anchors, xstar = random_setup(31)
        assert sys.M >= 20
        rho = sysm.spectral_radius(sys.P)
        trace = eng.run_to_convergence(
            eng.initial_state(anchors, sys.M, seed=8), sys, anchors, step_tol=1e-12,
            oracle=xstar,
        )
        fit = trace.decay_rate_estimate()
        assert fit is not None
        assert abs(fit - rho) <= 0.05

    def test_oracle_error_bounded_by_spectral_fit(self):
        _, sys, anchors, xstar = random_setup(32)
        rho = sysm.spectral_radius(sys.P)
        trace = eng.run_to_convergence(
            eng.initial_state(anchors, sys.M, seed=12), sys, anchors,
            step_tol=1e-12, oracle=xstar,
        )
        errs = trace.oracle_errors
        tail = errs[len(errs) // 2 : -20]
        ratios = tail[1:] / tail[:-1]
        assert np.median(ratios) <= rho + 0.02

    def test_snapshots_at_stride_plus_final(self):
        _, sys, anchors, _ = demo_setup()
        trace = eng.run_to_convergence(
            eng.initial_state(anchors, sys.M, seed=2), sys, anchors,
            step_tol=1e-10, snapshot_stride=7,
        )
        its = [t for t, _ in trace.snapshots]
        assert its[:-1] == [7 * (k + 1) for k in range(len(its) - 1)]
        assert its[-1] == trace.converged_at
        np.testing.assert_array_equal(trace.snapshots[-1][1], trace.final_state)

    def test_large_stride_keeps_only_final(self):
        _, sys, anchors, _ = demo_setup()
        trace = eng.run_to_convergence(
            eng.initial_state(anchors, sys.M, seed=2), sys, anchors,
            step_tol=1e-10, snapshot_stride=10**6,
        )
        assert len(trace.snapshots) == 1
        assert trace.snapshots[0][0] == trace.converged_at

    def test_bad_mode_rejected(self):
        _, sys, anchors, _ = demo_setup()
        with pytest.raises(eng.EngineError):
            eng.run_to_convergence(
                eng.initial_state(anchors, sys.M, seed=0), sys, anchors, mode="gossip"
            )

    def test_non_finite_state_raises(self):
        # a NaN step norm never drops below step_tol; the run must stop at once
        _, sys, anchors, xstar = demo_setup()
        guess = xstar.copy()
        guess[0, 0] = np.nan
        with pytest.raises(eng.NonFiniteStateError):
            eng.run_to_convergence(
                eng.state_from_guess(anchors, guess), sys, anchors, max_iters=10**6
            )


@pytest.mark.parametrize("mode", RESUMABLE)
def test_resumed_run_repeats_the_unbroken_run(mode):
    # 10 steps, then 13 more from the trace's last state, cross a 16-step draw
    # block; run_dlre used to restart its gains and draws at t = 0
    _, sys, anchors, xstar = demo_setup()
    initial = eng.initial_state(anchors, sys.M, seed=2)
    whole = _resumable_run(mode, initial, sys, anchors, 23, xstar)
    first = _resumable_run(mode, initial, sys, anchors, 10, xstar)
    resumed = eng.IterationState(first.final_state, first.snapshots[-1][0])
    rest = _resumable_run(mode, resumed, sys, anchors, 13, xstar)
    assert np.array_equal(rest.final_state, whole.final_state)
    for name in ("step_norms", "alphas", "oracle_errors"):
        joined = np.concatenate([getattr(first, name), getattr(rest, name)])
        assert np.array_equal(joined, getattr(whole, name)), name
    assert [t for t, _ in first.snapshots + rest.snapshots] == [t for t, _ in whole.snapshots] == [5, 10, 15, 20, 23]
