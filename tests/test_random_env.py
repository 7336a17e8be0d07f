import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dilocsim import deployment as dep
from dilocsim import engine as eng
from dilocsim import random_env as renv
from dilocsim import system as sysm


def demo_setup():
    field = dep.demo_network()
    tris = dep.triangulate_all(field)
    sys = sysm.build_system_matrices(field, tris)
    anchors = sysm.AnchorBlock(field.anchor_block())
    return field, tris, sys, anchors


def synthetic_chain(M: int) -> sysm.SystemMatrices:
    """Planar system without set-up: each row holds one anchor and two sensor
    links of weight 1/3."""
    third = np.full(M, 1.0 / 3.0)
    B = sp.csr_matrix((third, (np.arange(M), np.arange(M) % 3)), shape=(M, 3))
    rows = np.repeat(np.arange(M), 2)
    cols = (rows + np.tile([1, 2], M)) % M
    P = sp.csr_matrix((np.repeat(third, 2), (rows, cols)), shape=(M, M))
    return sysm.SystemMatrices(B, P, 2).validate()


def expected_step(x, sys, anchors, model, alpha):
    """Mean one-step map: x - alpha [(I - P - S_P) x - (B + S_B) U]."""
    s_b, s_p = renv.effective_biases(model, sys)
    A = np.eye(sys.M) - sys.P.toarray() - s_p
    rhs = (sys.B.toarray() + s_b) @ np.asarray(anchors.U, dtype=float)
    return x - alpha * (A @ x - rhs)


class TestWeightSchedule:
    def test_harmonic_values(self):
        sched = renv.make_weight_schedule("harmonic", 4.0)
        assert sched(0) == 4.0
        assert sched(3) == 1.0

    def test_power_qualifies(self):
        sched = renv.make_weight_schedule("power", 0.55)
        assert sched(0) == 1.0
        assert sched(3) == pytest.approx(4.0**-0.55)

    def test_power_half_rejected(self):
        with pytest.raises(renv.PersistenceViolationError):
            renv.make_weight_schedule("power", 0.5)

    def test_power_above_one_rejected(self):
        with pytest.raises(renv.PersistenceViolationError):
            renv.make_weight_schedule("power", 1.2)

    def test_nonpositive_harmonic_rejected(self):
        with pytest.raises(renv.PersistenceViolationError):
            renv.make_weight_schedule("harmonic", 0.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(renv.PersistenceViolationError):
            renv.make_weight_schedule("constant", 0.5)


class TestSampling:
    def test_degenerate_model_is_noise_free(self):
        _, _, sys, _ = demo_setup()
        model = renv.NoiseModel(seed=1)
        s = renv.sample_environment(model, sys, t=0)
        assert np.all(s.alive_B == 1.0) and np.all(s.alive_P == 1.0)
        np.testing.assert_array_equal(s.b_hat_data, sys.B.data)
        np.testing.assert_array_equal(s.p_hat_data, sys.P.data)
        assert not s.v_B.any() and not s.v_P.any()
        np.testing.assert_array_equal(s.B_hat(sys).toarray(), sys.B.toarray())

    def test_link_alive_frequency(self):
        _, _, sys, _ = demo_setup()
        model = renv.NoiseModel(link_prob=0.9, seed=2)
        draws = 10_000
        alive = 0
        total = 0
        for i in range(draws):
            s = renv.sample_environment(model, sys, t=0, draw=i)
            alive += s.alive_B.sum() + s.alive_P.sum()
            total += s.alive_B.size + s.alive_P.size
        assert abs(alive / total - 0.9) < 0.01

    def test_fluctuations_are_zero_mean(self):
        _, _, sys, _ = demo_setup()
        var = 0.04
        model = renv.NoiseModel(fluct_var=var, seed=3)
        draws = 10_000
        acc = np.zeros(sys.B.nnz)
        for i in range(draws):
            s = renv.sample_environment(model, sys, t=5, draw=i)
            acc += s.b_hat_data - sys.B.data
        mean = acc / draws
        assert np.abs(mean).max() < 3.0 * np.sqrt(var) / np.sqrt(draws)

    def test_link_compensation_unbiased(self):
        q = 0.7
        _, _, sys, _ = demo_setup()
        model = renv.NoiseModel(link_prob=q, seed=4)
        per = sys.B.nnz + sys.P.nnz
        draws = 100_000 // per + 1
        vals = np.empty(draws * per)
        for i in range(draws):
            s = renv.sample_environment(model, sys, t=0, draw=i)
            vals[i * per : (i + 1) * per] = np.concatenate([s.alive_B, s.alive_P])
        comp = vals / q
        se = comp.std() / np.sqrt(len(comp))
        assert abs(comp.mean() - 1.0) < 4.0 * se

    def test_deterministic_in_seed_t_draw(self):
        _, _, sys, _ = demo_setup()
        model = renv.NoiseModel(link_prob=0.8, channel_noise_var=0.1, fluct_var=0.05, seed=9)
        a = renv.sample_environment(model, sys, t=7, draw=3)
        b = renv.sample_environment(model, sys, t=7, draw=3)
        c = renv.sample_environment(model, sys, t=8, draw=3)
        np.testing.assert_array_equal(a.v_B, b.v_B)
        np.testing.assert_array_equal(a.alive_P, b.alive_P)
        assert not np.array_equal(a.v_B, c.v_B)

    def test_custom_samplers_used(self):
        _, _, sys, _ = demo_setup()
        # bounded, zero-mean, decidedly non-Gaussian
        model = renv.NoiseModel(
            channel_noise_var=1.0,
            fluct_var=1.0,
            channel_sampler=lambda rng, size: rng.choice([-0.5, 0.5], size=size),
            fluct_sampler=lambda rng, size: rng.choice([-0.25, 0.25], size=size),
            seed=5,
        )
        s = renv.sample_environment(model, sys, t=0)
        assert set(np.unique(np.abs(s.v_B))) <= {0.5}
        np.testing.assert_allclose(np.abs(s.b_hat_data - sys.B.data), 0.25, atol=1e-12)

    def test_bad_link_prob_rejected(self):
        _, _, sys, _ = demo_setup()
        with pytest.raises(renv.RandomEnvError):
            renv.sample_environment(renv.NoiseModel(link_prob=0.0), sys, t=0)


class TestDlreStep:
    def test_reduces_to_relaxed_update(self):
        _, _, sys, anchors = demo_setup()
        model = renv.NoiseModel(seed=0)
        state = eng.initial_state(anchors, sys.M, seed=6)
        for alpha in (0.5, 1.0):
            got = renv.dlre_step(state.X, sys, anchors, model, lambda t: alpha, t=0)
            ref = eng.diloc_rel_step(state, sys, anchors, alpha=alpha)
            assert np.array_equal(got, ref.X)

    def test_fixed_point_of_mean_dynamics(self):
        _, _, sys, anchors = demo_setup()
        bias_b, bias_p = renv.random_link_bias(sys, 0.02, seed=11)
        model = renv.NoiseModel(
            link_prob=0.9, channel_noise_var=0.01, bias_B=bias_b, bias_P=bias_p,
            fluct_var=0.01, seed=11,
        )
        limit = renv.dlre_limit(sys, anchors, model)
        alpha = 0.05
        draws = 10_000
        acc = np.zeros_like(limit.d_star)
        sq = np.zeros_like(limit.d_star)
        for i in range(draws):
            nxt = renv.dlre_step(limit.d_star, sys, anchors, model, lambda t: alpha, t=0, draw=i)
            acc += nxt
            sq += nxt**2
        mean = acc / draws
        se = np.sqrt(np.maximum(sq / draws - mean**2, 0.0)) / np.sqrt(draws)
        np.testing.assert_array_less(np.abs(mean - limit.d_star), 4.0 * se + 1e-12)

    def test_conditional_drift_matches_mean_map(self):
        _, _, sys, anchors = demo_setup()
        bias_b, bias_p = renv.random_link_bias(sys, 0.05, seed=13)
        model = renv.NoiseModel(
            link_prob=0.8, channel_noise_var=0.02, bias_B=bias_b, bias_P=bias_p,
            fluct_var=0.03, seed=13,
        )
        rng = np.random.default_rng(77)
        x = rng.uniform(0.0, 5.0, size=(sys.M, sys.m))
        alpha = 0.1
        draws = 10_000
        acc = np.zeros_like(x)
        sq = np.zeros_like(x)
        for i in range(draws):
            nxt = renv.dlre_step(x, sys, anchors, model, lambda t: alpha, t=3, draw=i)
            acc += nxt
            sq += nxt**2
        mean = acc / draws
        se = np.sqrt(np.maximum(sq / draws - mean**2, 0.0)) / np.sqrt(draws)
        expected = expected_step(x, sys, anchors, model, alpha)
        np.testing.assert_array_less(np.abs(mean - expected), 4.0 * se + 1e-12)

    def test_perturbation_zero_mean_bounded_second_moment(self):
        _, _, sys, anchors = demo_setup()
        model = renv.NoiseModel(link_prob=0.9, channel_noise_var=0.05, fluct_var=0.05, seed=15)
        rng = np.random.default_rng(15)
        x = rng.uniform(0.0, 5.0, size=(sys.M, sys.m))
        alpha = 1.0
        expected = expected_step(x, sys, anchors, model, alpha)
        draws = 8000
        second_moments = []
        for t in (0, 17, 400):
            acc = np.zeros_like(x)
            sq_norm = 0.0
            sqe = np.zeros_like(x)
            for i in range(draws):
                nxt = renv.dlre_step(x, sys, anchors, model, lambda _t: alpha, t=t, draw=i)
                gamma = nxt - expected
                acc += gamma
                sqe += gamma**2
                sq_norm += float((gamma**2).sum())
            mean = acc / draws
            se = np.sqrt(np.maximum(sqe / draws - mean**2, 0.0)) / np.sqrt(draws)
            np.testing.assert_array_less(np.abs(mean), 4.0 * se + 1e-12)
            second_moments.append(sq_norm / draws)
        assert max(second_moments) < 50.0


class TestDlreRun:
    def test_error_shrinks_with_horizon(self):
        _, _, sys, anchors = demo_setup()
        xstar = sysm.exact_locations_oracle(sys, anchors)
        model = renv.NoiseModel(link_prob=0.9, channel_noise_var=1.0 / sys.M, seed=21)
        sched = renv.make_weight_schedule("harmonic", 4.0)
        errs = []
        for iters in (100, 2000, 40_000):
            trace = renv.run_dlre(
                eng.initial_state(anchors, sys.M, seed=21), sys, anchors, model,
                sched, max_iters=iters, snapshot_stride=0,
            )
            errs.append(float(np.linalg.norm(trace.final_state - xstar)))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.05 * np.linalg.norm(xstar)

    def test_trace_accounting(self):
        _, _, sys, anchors = demo_setup()
        model = renv.NoiseModel(seed=1)
        sched = renv.make_weight_schedule("harmonic", 1.0)
        trace = renv.run_dlre(
            eng.initial_state(anchors, sys.M, seed=1), sys, anchors, model, sched,
            max_iters=50, snapshot_stride=10,
        )
        assert trace.iterations == 50
        assert trace.per_sensor_messages == sys.m + 1
        assert trace.alphas[0] == 1.0
        assert trace.alphas[3] == 0.25
        assert [t for t, _ in trace.snapshots] == [10, 20, 30, 40, 50]

    def test_quiet_constant_gain_run_is_relaxed_run(self):
        # both runs share one loop: a noise-free DLRE run with a constant
        # gain is the DILOC-REL run, bit for bit, in every recorded column
        _, _, sys, anchors = demo_setup()
        initial = eng.initial_state(anchors, sys.M, seed=4)
        xstar = sysm.exact_locations_oracle(sys, anchors)
        alpha = 0.3
        robust = renv.run_dlre(
            initial, sys, anchors, renv.NoiseModel(), lambda t: alpha,
            max_iters=200, snapshot_stride=7, oracle=xstar,
        )
        relaxed = eng.run_to_convergence(
            initial, sys, anchors, mode="diloc_rel", alpha=alpha, step_tol=0,
            max_iters=200, snapshot_stride=7, oracle=xstar,
        )
        assert robust.iterations == relaxed.iterations == 200
        for got, ref in (
            (robust.step_norms, relaxed.step_norms),
            (robust.alphas, relaxed.alphas),
            (robust.oracle_errors, relaxed.oracle_errors),
            (robust.final_state, relaxed.final_state),
        ):
            assert got.tobytes() == ref.tobytes()
        assert [t for t, _ in robust.snapshots] == [t for t, _ in relaxed.snapshots]
        for (_, a), (_, b) in zip(robust.snapshots, relaxed.snapshots):
            assert a.tobytes() == b.tobytes()
        assert robust.converged_at is None and relaxed.converged_at is None

    def test_biased_steps_allocate_per_link_only(self):
        # one dense M x M float array is 32 MB at M = 2000; a step needs only
        # per-link vectors
        M = 2000
        sys = synthetic_chain(M)
        anchors = sysm.AnchorBlock(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        bias_b, bias_p = renv.random_link_bias(sys, 0.01, seed=3)
        model = renv.NoiseModel(link_prob=0.9, bias_B=bias_b, bias_P=bias_p, fluct_var=0.01, seed=3)
        initial = eng.initial_state(anchors, M, seed=3)
        schedule = renv.make_weight_schedule("harmonic", 1.0)
        tracemalloc.start()
        try:
            trace = renv.run_dlre(initial, sys, anchors, model, schedule, max_iters=20, snapshot_stride=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.iterations == 20
        assert peak < 8 * 2**20

    def test_non_finite_state_raises(self):
        _, _, sys, anchors = demo_setup()
        guess = np.full((sys.M, sys.m), np.inf)
        with pytest.raises(renv.NonFiniteStateError) as info, np.errstate(invalid="ignore"):
            renv.run_dlre(
                eng.state_from_guess(anchors, guess), sys, anchors, renv.NoiseModel(seed=1),
                renv.make_weight_schedule("harmonic", 1.0), max_iters=10**6,
            )
        # both drivers raise the same engine-level error for the CLI's exit status 3
        assert isinstance(info.value, eng.NonFiniteStateError)


class TestDlreLimit:
    def test_unbiased_limit_is_exact(self):
        _, _, sys, anchors = demo_setup()
        model = renv.NoiseModel(link_prob=0.9, channel_noise_var=0.3, fluct_var=0.2, seed=2)
        limit = renv.dlre_limit(sys, anchors, model)
        xstar = sysm.exact_locations_oracle(sys, anchors)
        np.testing.assert_allclose(limit.d_star, xstar, atol=1e-10)
        assert limit.e_l < 1e-10

    def test_bias_ladder_monotone_to_zero(self):
        _, _, sys, anchors = demo_setup()
        bias_b, bias_p = renv.random_link_bias(sys, 0.01, seed=31)
        errs = []
        for s in (1.0, 0.5, 0.25, 0.125):
            model = renv.NoiseModel(bias_B=s * bias_b, bias_P=s * bias_p, seed=0)
            errs.append(renv.dlre_limit(sys, anchors, model).e_l)
        assert errs[0] > 0
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < errs[0] / 4.0

    def test_d2_violation_raises(self):
        _, _, sys, anchors = demo_setup()
        model = renv.NoiseModel(bias_P=sys.P.toarray(), seed=0)
        with pytest.raises(sysm.SingularSystemError):
            renv.dlre_limit(sys, anchors, model)

    def test_off_link_bias_is_ignored(self):
        _, _, sys, anchors = demo_setup()
        dense_b = np.full(sys.B.shape, 0.3)
        dense_p = np.full(sys.P.shape, 0.3)
        s_b, s_p = renv.effective_biases(
            renv.NoiseModel(bias_B=dense_b, bias_P=dense_p), sys
        )
        assert np.all((s_b != 0) == (sys.B.toarray() != 0))
        assert np.all((s_p != 0) == (sys.P.toarray() != 0))


class TestRandomLinkBias:
    def test_norm_and_support(self):
        _, _, sys, _ = demo_setup()
        bias_b, bias_p = renv.random_link_bias(sys, 0.05, seed=3)
        assert np.linalg.norm(bias_b) == pytest.approx(0.05)
        assert np.linalg.norm(bias_p) == pytest.approx(0.05)
        assert np.all((bias_b != 0) <= (sys.B.toarray() != 0))
        assert np.all((bias_p != 0) <= (sys.P.toarray() != 0))

    def test_deterministic(self):
        _, _, sys, _ = demo_setup()
        a = renv.random_link_bias(sys, 0.05, seed=3)
        b = renv.random_link_bias(sys, 0.05, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestDistanceNoiseAdapter:
    def test_small_noise_small_bias(self):
        field, tris, sys, anchors = demo_setup()
        model = renv.noise_model_from_distance_noise(
            field, tris, sys, distance_std=0.01, n_draws=300, seed=7
        )
        assert model.fluct_var > 0.0
        s_b, s_p = renv.effective_biases(model, sys)
        assert np.linalg.norm(s_b) < 0.05
        assert np.linalg.norm(s_p) < 0.05
        limit = renv.dlre_limit(sys, anchors, model)
        assert limit.e_l < 0.5

    def test_bias_shrinks_with_noise(self):
        field, tris, sys, anchors = demo_setup()
        small = renv.noise_model_from_distance_noise(
            field, tris, sys, distance_std=0.002, n_draws=300, seed=7
        )
        large = renv.noise_model_from_distance_noise(
            field, tris, sys, distance_std=0.05, n_draws=300, seed=7
        )
        e_small = renv.dlre_limit(sys, anchors, small).e_l
        e_large = renv.dlre_limit(sys, anchors, large).e_l
        assert e_small < e_large
        assert small.fluct_var < large.fluct_var
