import math
import tracemalloc

import numpy as np
import pytest

from dilocsim import deployment as dep
from dilocsim import engine as eng
from dilocsim import random_env as renv
from dilocsim import system as sysm
from helpers import (
    MIS_SHAPED,
    MIS_SHAPED_ORACLE,
    effective_biases,
    estimated_blocks,
    mis_shaped,
    mis_shaped_oracle,
    synthetic_chain,
)


def demo_setup():
    field = dep.demo_network()
    tris = dep.triangulate_all(field)
    sys = sysm.build_system_matrices(field, tris)
    anchors = sysm.AnchorBlock(field.anchor_block())
    return field, tris, sys, anchors


def expected_step(x, sys, anchors, model, alpha):
    """Mean one-step map: x - alpha [(I - P - S_P) x - (B + S_B) U]."""
    s_b, s_p = effective_biases(model, sys)
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

    @pytest.mark.parametrize("param", [np.nan, np.inf])
    def test_non_finite_harmonic_rejected(self, param):
        # the gains would be nan or inf, and the first DLRE step would fail
        with pytest.raises(renv.PersistenceViolationError):
            renv.make_weight_schedule("harmonic", param)

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
        np.testing.assert_array_equal(estimated_blocks(s, sys)[0].toarray(), sys.B.toarray())

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

    def test_zero_d_link_prob_is_the_float(self):
        _, _, sys, anchors = demo_setup()
        x = eng.initial_state(anchors, sys.M, seed=8).X
        got, ref = (
            renv.NoiseModel(link_prob=q, channel_noise_var=0.1, seed=8) for q in (np.array(0.9), 0.9)
        )
        a, b = renv.sample_environment(got, sys, t=3), renv.sample_environment(ref, sys, t=3)
        np.testing.assert_array_equal(a.alive_P, b.alive_P)
        np.testing.assert_array_equal(a.v_B, b.v_B)
        step = [renv.dlre_step(x, sys, anchors, mdl, lambda t: 0.5, t=3) for mdl in (got, ref)]
        assert step[0].tobytes() == step[1].tobytes()
        with pytest.raises(renv.RandomEnvError):
            renv.sample_environment(renv.NoiseModel(link_prob=np.array(0.0)), sys, t=0)

    def test_block_edges_and_draws_separate_samples(self):
        # steps 15 and 16 fall in different blocks, so different generators
        _, _, sys, _ = demo_setup()
        model = renv.NoiseModel(link_prob=0.8, channel_noise_var=0.1, fluct_var=0.05, seed=9)
        base = renv.sample_environment(model, sys, t=15, draw=0)
        for t, draw in ((16, 0), (15, 1)):
            other = renv.sample_environment(model, sys, t=t, draw=draw)
            assert not np.array_equal(base.v_B, other.v_B)
            assert not np.array_equal(base.v_P, other.v_P)
            assert not np.array_equal(base.p_hat_data, other.p_hat_data)

    def test_bad_link_prob_rejected(self):
        _, _, sys, _ = demo_setup()
        with pytest.raises(renv.RandomEnvError):
            renv.sample_environment(renv.NoiseModel(link_prob=0.0), sys, t=0)

    def test_per_link_alive_frequency(self):
        # the (B, P) pair form gives every link its own alive probability
        _, _, sys, _ = demo_setup()
        rng = np.random.default_rng(12)
        q_b = rng.uniform(0.2, 1.0, size=sys.B.shape)
        q_p = rng.uniform(0.2, 1.0, size=sys.P.shape)
        q_p[0] = 1.0
        model = renv.NoiseModel(link_prob=(q_b, q_p), seed=12)
        draws = 4000
        alive_b = np.zeros(sys.B.nnz)
        alive_p = np.zeros(sys.P.nnz)
        for i in range(draws):
            s = renv.sample_environment(model, sys, t=0, draw=i)
            alive_b += s.alive_B
            alive_p += s.alive_P
        for alive, q, block in ((alive_b, q_b, sys.B), (alive_p, q_p, sys.P)):
            rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
            want = q[rows, block.indices]
            np.testing.assert_array_less(
                np.abs(alive / draws - want), 5.0 * np.sqrt(want * (1.0 - want) / draws) + 1e-12
            )
        assert np.all(alive_p[: sys.P.indptr[1]] == draws)


class TestModelValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, np.nan])
    def test_per_link_prob_out_of_range_rejected(self, bad):
        _, _, sys, anchors = demo_setup()
        q_b = np.full(sys.B.shape, 0.9)
        q_p = np.full(sys.P.shape, 0.9)
        q_p[0, sys.P.indices[0]] = bad  # on a link
        model = renv.NoiseModel(link_prob=(q_b, q_p))
        with pytest.raises(renv.RandomEnvError):
            renv.sample_environment(model, sys, t=0)
        with pytest.raises(renv.RandomEnvError):
            renv.dlre_step(np.zeros((sys.M, sys.m)), sys, anchors, model, lambda t: 1.0, t=0)

    def test_malformed_link_prob_pair_rejected(self):
        _, _, sys, _ = demo_setup()
        q_b, q_p = np.full(sys.B.shape, 0.9), np.full(sys.P.shape, 0.9)
        for bad in ((q_b,), (q_b, q_p, q_p), (q_b, q_p[:2, :2]), (q_b.T, q_p)):
            with pytest.raises(renv.RandomEnvError):
                renv.sample_environment(renv.NoiseModel(link_prob=bad), sys, t=0)

    @pytest.mark.parametrize("field", ["channel_noise_var", "fluct_var"])
    @pytest.mark.parametrize("bad", [-0.1, -np.inf, np.inf, np.nan])
    def test_bad_variance_rejected(self, field, bad):
        # a negative or NaN variance fails the draw's "> 0" test and would
        # silently run noise-free
        _, _, sys, anchors = demo_setup()
        model = renv.NoiseModel(**{field: bad})
        initial = eng.initial_state(anchors, sys.M, seed=1)
        calls = (
            lambda: renv.sample_environment(model, sys, t=0),
            lambda: renv.dlre_step(initial.X, sys, anchors, model, lambda t: 1.0, t=0),
            lambda: renv.run_dlre(initial, sys, anchors, model, lambda t: 1.0, max_iters=5),
            lambda: renv.dlre_limit(sys, anchors, model),
        )
        for call in calls:
            with pytest.raises(renv.RandomEnvError, match=field):
                call()

    @pytest.mark.parametrize("block", ["B", "P"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_link_bias_rejected(self, block, bad):
        # a nan bias used to reach LAPACK and ARPACK in dlre_limit, fail run_dlre
        # at its first step and come back from sample_environment as a weight
        _, _, sys, anchors = demo_setup()
        matrix = getattr(sys, block)
        bias = np.zeros(matrix.shape)
        bias[0, matrix.indices[0]] = bad  # the first link of row 0, which has links in both blocks
        model = renv.NoiseModel(**{f"bias_{block}": bias})
        initial = eng.initial_state(anchors, sys.M, seed=1)
        calls = (
            lambda: renv.sample_environment(model, sys, t=0),
            lambda: renv.dlre_step(initial.X, sys, anchors, model, lambda t: 1.0, t=0),
            lambda: renv.run_dlre(initial, sys, anchors, model, lambda t: 1.0, max_iters=5),
            lambda: renv.dlre_limit(sys, anchors, model),
        )
        for call in calls:
            with pytest.raises(renv.RandomEnvError, match=f"bias_{block} must be finite"):
                call()
        # off the links a bias takes no effect, so it may be anything
        off = np.where(matrix.toarray() == 0.0, bad, 0.0)
        sample = renv.sample_environment(renv.NoiseModel(**{f"bias_{block}": off}), sys, t=0)
        assert np.isfinite(sample.b_hat_data).all() and np.isfinite(sample.p_hat_data).all()


class TestDlreStep:
    @pytest.mark.parametrize("t, draw", [(-1, 0), (0, -1)])
    @pytest.mark.parametrize("schedule", ["harmonic", "constant"])
    def test_negative_index_rejected(self, t, draw, schedule):
        # t = -1 drew block 2^64 - 1, and the harmonic gain divided by t + 1 = 0
        _, _, sys, anchors = demo_setup()
        model = renv.NoiseModel(link_prob=0.9, seed=3)
        gain = renv.make_weight_schedule("harmonic", 1.0) if schedule == "harmonic" else (lambda t: 0.5)
        x = eng.initial_state(anchors, sys.M, seed=1).X
        with pytest.raises(renv.RandomEnvError, match="nonnegative"):
            renv.dlre_step(x, sys, anchors, model, gain, t=t, draw=draw)
        with pytest.raises(renv.RandomEnvError, match="nonnegative"):
            renv.sample_environment(model, sys, t=t, draw=draw)

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


class TestStreamContract:
    """run_dlre, dlre_step and sample_environment read one keyed stream."""

    @staticmethod
    def model(sys):
        bias_b, bias_p = renv.random_link_bias(sys, 0.02, seed=19)
        return renv.NoiseModel(
            link_prob=0.8, channel_noise_var=0.05, bias_B=bias_b, bias_P=bias_p,
            fluct_var=0.03, seed=19,
        )

    def test_chained_steps_are_the_run(self):
        # 41 steps cross the block edges at 16 and 32
        _, _, sys, anchors = demo_setup()
        model = self.model(sys)
        schedule = renv.make_weight_schedule("harmonic", 2.0)
        initial = eng.initial_state(anchors, sys.M, seed=19)
        trace = renv.run_dlre(initial, sys, anchors, model, schedule, max_iters=41, snapshot_stride=1)
        x = initial.X
        for t, (it, snap) in enumerate(trace.snapshots):
            x = renv.dlre_step(x, sys, anchors, model, schedule, t, draw=0)
            assert it == t + 1
            assert x.tobytes() == snap.tobytes()
        assert len(trace.snapshots) == 41

    def test_one_generator_per_block(self, monkeypatch):
        _, _, sys, anchors = demo_setup()
        model = self.model(sys)
        initial = eng.initial_state(anchors, sys.M, seed=19)
        keys = []
        build = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda key: keys.append(key) or build(key))
        renv.run_dlre(initial, sys, anchors, model, lambda t: 0.5, max_iters=41, snapshot_stride=0)
        assert keys == [[19, 301, block, 0] for block in range(3)]

    @pytest.mark.parametrize("t, draw", [(0, 0), (15, 0), (16, 0), (37, 2)])
    def test_sample_rebuilds_the_step(self, t, draw):
        # a live link contributes (w + fluct) / q times the received, noisy value
        _, _, sys, anchors = demo_setup()
        model = self.model(sys)
        x = eng.initial_state(anchors, sys.M, seed=t).X
        U = np.asarray(anchors.U, dtype=float)
        alpha = 0.4
        s = renv.sample_environment(model, sys, t, draw)
        total = np.zeros_like(x)
        for block, src, alive, w, v in (
            (sys.P, x, s.alive_P, s.p_hat_data, s.v_P),
            (sys.B, U, s.alive_B, s.b_hat_data, s.v_B),
        ):
            for i in range(block.shape[0]):
                for k in range(block.indptr[i], block.indptr[i + 1]):
                    total[i] += alive[k] * w[k] / model.link_prob * (src[block.indices[k]] + v[k])
        rebuilt = (1.0 - alpha) * x + alpha * total
        got = renv.dlre_step(x, sys, anchors, model, lambda _t: alpha, t, draw)
        np.testing.assert_allclose(got, rebuilt, rtol=0.0, atol=1e-15)


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
        assert trace.per_sensor_flops == 2 * sys.m + 3 == 7
        assert trace.alphas[0] == 1.0
        assert trace.alphas[3] == 0.25
        assert [t for t, _ in trace.snapshots] == [10, 20, 30, 40, 50]

    def test_final_state_is_last_snapshot(self):
        _, _, sys, anchors = demo_setup()
        trace = renv.run_dlre(
            eng.initial_state(anchors, sys.M, seed=1), sys, anchors, renv.NoiseModel(link_prob=0.9, seed=1),
            renv.make_weight_schedule("harmonic", 1.0), max_iters=23, snapshot_stride=10,
        )
        assert [t for t, _ in trace.snapshots] == [10, 20, 23]
        assert trace.final_state is trace.snapshots[-1][1]
        assert trace.final_state.shape == (sys.M, sys.m)

    @pytest.mark.parametrize("case", MIS_SHAPED)
    def test_run_rejects_mis_shaped_inputs(self, case):
        # the DILOC driver's shape check: before it, one extra row decayed to
        # 0 and one missing row ended in a bare numpy reshape error
        _, _, sys, anchors = demo_setup()
        state, block = mis_shaped(sys, anchors, case)
        with pytest.raises(eng.DimensionMismatchError):
            renv.run_dlre(
                state, sys, block, renv.NoiseModel(link_prob=0.9, seed=1), lambda t: 0.5, max_iters=5
            )

    @pytest.mark.parametrize("case", MIS_SHAPED)
    def test_step_rejects_mis_shaped_inputs(self, case):
        _, _, sys, anchors = demo_setup()
        state, block = mis_shaped(sys, anchors, case)
        with pytest.raises(eng.DimensionMismatchError):
            renv.dlre_step(
                state.X, sys, block, renv.NoiseModel(link_prob=0.9, seed=1), lambda t: 0.5, t=0
            )

    def test_negative_step_tol_rejected(self):
        _, _, sys, anchors = demo_setup()
        with pytest.raises(eng.EngineError, match="step_tol"):
            renv.run_dlre(
                eng.initial_state(anchors, sys.M), sys, anchors, renv.NoiseModel(seed=1),
                lambda t: 0.5, max_iters=5, step_tol=-1e-12,
            )

    def test_nan_step_tol_rejected(self):
        # a nan tolerance is never met: the run would spin to max_iters
        _, _, sys, anchors = demo_setup()
        with pytest.raises(eng.EngineError, match="step_tol"):
            renv.run_dlre(
                eng.initial_state(anchors, sys.M), sys, anchors, renv.NoiseModel(seed=1),
                lambda t: 0.5, max_iters=5, step_tol=math.nan,
            )

    @pytest.mark.parametrize("case", MIS_SHAPED_ORACLE)
    def test_run_rejects_mis_shaped_oracle(self, case):
        _, _, sys, anchors = demo_setup()
        xstar = sysm.exact_locations_oracle(sys, anchors)
        with pytest.raises(eng.DimensionMismatchError, match="oracle"):
            renv.run_dlre(
                eng.initial_state(anchors, sys.M), sys, anchors, renv.NoiseModel(seed=1),
                lambda t: 0.5, max_iters=5, oracle=mis_shaped_oracle(xstar, case),
            )

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

    @pytest.mark.parametrize("M", [50, 500, 2000])
    def test_biased_limit_matches_dense_solve(self, M):
        sys = synthetic_chain(M)
        anchors = sysm.AnchorBlock(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        bias_b, bias_p = renv.random_link_bias(sys, 0.01, seed=5)
        limit = renv.dlre_limit(sys, anchors, renv.NoiseModel(bias_B=bias_b, bias_P=bias_p))
        P, B, U = sys.P.toarray(), sys.B.toarray(), anchors.U
        d_ref = np.linalg.solve(np.eye(M) - P - bias_p, (B + bias_b) @ U)
        x_ref = np.linalg.solve(np.eye(M) - P, B @ U)
        e_ref = np.linalg.norm(d_ref - x_ref)
        np.testing.assert_allclose(limit.d_star, d_ref, rtol=0.0, atol=1e-10)
        assert limit.e_l == pytest.approx(e_ref, rel=1e-12)

    def test_sign_mixed_bias_is_decided_by_the_radius(self):
        # P + S_P is the circulant with first row (0, a, -a): radius a * sqrt(3) < 1,
        # while |P + S_P| has radius 2a > 1 and cannot certify it
        a = 0.55
        sys = synthetic_chain(3)
        anchors = sysm.AnchorBlock(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        target = a * (np.roll(np.eye(3), 1, axis=1) - np.roll(np.eye(3), 2, axis=1))
        limit = renv.dlre_limit(sys, anchors, renv.NoiseModel(bias_P=target - sys.P.toarray()))
        d_ref = np.linalg.solve(np.eye(3) - target, sys.B.toarray() @ anchors.U)
        np.testing.assert_allclose(limit.d_star, d_ref, rtol=0.0, atol=1e-12)

    def test_two_sensor_limit_takes_the_dense_radius(self):
        # sensors 1 and 2 between anchors 0 and 3 give P = [[0, .5], [.5, 0]];
        # the biased block [[0, 1.2], [-0.9, 0]] has a negative weight, and its
        # eigenvalues +-1.039i, from a dense eigensolve since ARPACK needs three
        # rows, leave the unit disk
        field = dep.SensorField(1, np.array([[0.0], [3.0]]), np.array([[1.0], [2.0]]))
        sys = sysm.build_system_matrices(field, dep.triangulate_all(field))
        anchors = sysm.AnchorBlock(field.anchor_block())
        np.testing.assert_allclose(sys.P.toarray(), [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
        model = renv.NoiseModel(bias_P=np.array([[0.0, 0.7], [-1.4, 0.0]]))
        with pytest.raises(sysm.SingularSystemError, match="spectral radius"):
            renv.dlre_limit(sys, anchors, model)

    def test_biased_limit_allocates_per_link_only(self):
        # one dense M x M float array is 200 MB at M = 5000; constant biases
        # as zero-stride views keep the model itself small
        M = 5000
        sys = synthetic_chain(M)
        anchors = sysm.AnchorBlock(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        model = renv.NoiseModel(
            bias_B=np.broadcast_to(1e-3, sys.B.shape), bias_P=np.broadcast_to(1e-3, sys.P.shape)
        )
        tracemalloc.start()
        try:
            limit = renv.dlre_limit(sys, anchors, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert limit.e_l > 0.0
        assert peak < 16 * 2**20

    def test_off_link_bias_is_ignored(self):
        # a dense bias acts only through its on-link entries: the limit and a
        # noisy step equal those of the bias projected onto the links, bit for bit
        _, _, sys, anchors = demo_setup()
        rng = np.random.default_rng(17)
        dense = renv.NoiseModel(
            link_prob=0.9, channel_noise_var=0.01, fluct_var=0.01, seed=17,
            bias_B=rng.uniform(-0.01, 0.01, sys.B.shape), bias_P=rng.uniform(-0.01, 0.01, sys.P.shape),
        )
        s_b, s_p = effective_biases(dense, sys)
        assert np.count_nonzero(s_p) == sys.P.nnz < s_p.size
        projected = renv.NoiseModel(
            link_prob=0.9, channel_noise_var=0.01, fluct_var=0.01, seed=17, bias_B=s_b, bias_P=s_p
        )
        got, ref = renv.dlre_limit(sys, anchors, dense), renv.dlre_limit(sys, anchors, projected)
        assert got.d_star.tobytes() == ref.d_star.tobytes()
        assert got.e_l == ref.e_l > 0.0
        step = [renv.dlre_step(got.d_star, sys, anchors, mdl, lambda t: 0.5, t=4) for mdl in (dense, projected)]
        assert step[0].tobytes() == step[1].tobytes()


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


def test_field_without_sensors_end_to_end():
    # the general code serves M = 0: absorbing_check and dlre_limit need no
    # special case (the oracle keeps one, since its residual check needs a value)
    anchors_xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    field = dep.generate_poisson_field(2, 1e-12, anchors_xy, seed=3)
    assert field.n_sensors == 0
    tris = dep.triangulate_all(field)
    sys = sysm.build_system_matrices(field, tris)
    anchors = sysm.AnchorBlock(field.anchor_block())
    assert tris == {} and sys.M == 0
    assert sysm.absorbing_check(sys) is True
    assert sysm.spectral_radius(sys.P) == 0.0
    empty = np.zeros((0, 2))
    np.testing.assert_array_equal(sysm.exact_locations_oracle(sys, anchors), empty)
    bias_b, bias_p = renv.random_link_bias(sys, 0.5, seed=1)
    schedule = renv.make_weight_schedule("harmonic", 1.0)
    for model in (
        renv.NoiseModel(seed=1),
        renv.NoiseModel(link_prob=0.9, channel_noise_var=1.0, fluct_var=0.1, bias_B=bias_b, bias_P=bias_p, seed=1),
    ):
        limit = renv.dlre_limit(sys, anchors, model)
        np.testing.assert_array_equal(limit.d_star, empty)
        assert limit.e_l == 0.0
        trace = renv.run_dlre(eng.initial_state(anchors, 0), sys, anchors, model, schedule, max_iters=20, oracle=empty)
        assert trace.iterations == 20 and trace.final_state.shape == (0, 2)
        assert not trace.step_norms.any() and not trace.oracle_errors.any()
    for mode in eng.MODES:
        trace = eng.run_to_convergence(eng.initial_state(anchors, 0), sys, anchors, mode=mode, alpha=0.5, oracle=empty)
        assert trace.converged_at == 1 and trace.final_state.shape == (0, 2)
