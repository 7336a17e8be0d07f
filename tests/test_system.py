import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from dilocsim import deployment as dep
from dilocsim import system as sysm
from helpers import dump_matrices, fundamental_matrix_series, synthetic_chain


def demo_system():
    field = dep.demo_network()
    tris = dep.triangulate_all(field)
    return field, sysm.build_system_matrices(field, tris), sysm.AnchorBlock(field.anchor_block())


def random_system(seed, gamma=1.0, side=8.0):
    anchors = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * math.sqrt(3) / 2]])
    field = dep.generate_poisson_field(2, gamma, anchors, seed=seed)
    tris = dep.triangulate_all(field)
    return field, sysm.build_system_matrices(field, tris), sysm.AnchorBlock(field.anchor_block())


class TestBuild:
    def test_demo_sparsity_pattern(self):
        _, sys, _ = demo_system()
        # sensor rows 4..7 map to 0..3; anchor cols shift by 1, sensor cols by 5
        b_pattern = {r: set(sys.B[r].indices) for r in range(4)}
        p_pattern = {r: set(sys.P[r].indices) for r in range(4)}
        assert b_pattern == {0: {0}, 1: set(), 2: {1}, 3: {2}}
        assert p_pattern == {0: {1, 3}, 1: {0, 2, 3}, 2: {1, 3}, 3: {0, 2}}

    def test_row_sums_and_bounds(self):
        _, sys, _ = demo_system()
        np.testing.assert_allclose(sys.row_sums(), 1.0, atol=1e-12)
        for block in (sys.B, sys.P):
            assert block.data.min() >= 0.0 and block.data.max() <= 1.0

    def test_exactly_m_plus_1_nonzeros_per_row(self):
        _, sys, _ = random_system(2)
        nnz = np.diff(sys.B.indptr) + np.diff(sys.P.indptr)
        assert np.all(nnz == sys.m + 1)
        np.testing.assert_allclose(sys.row_sums(), 1.0, atol=1e-12)

    def test_single_sensor_at_centroid(self):
        anchors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        field = dep.SensorField(2, anchors, anchors.mean(axis=0)[None, :])
        tris = dep.triangulate_all(field)
        sys = sysm.build_system_matrices(field, tris)
        np.testing.assert_allclose(sys.B.toarray(), [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)
        assert sys.P.nnz == 0

    def test_missing_triangulation(self):
        field = dep.demo_network()
        tris = dep.triangulate_all(field)
        del tris[5]
        with pytest.raises(sysm.MissingTriangulationError):
            sysm.build_system_matrices(field, tris)


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert sysm.spectral_radius(sp.csr_matrix((3, 3))) == 0.0

    def test_two_state_swap(self):
        # eigenvalues of [[0, 1/2], [1/2, 0]] are +-1/2 by its characteristic
        # polynomial x^2 - 1/4
        swap = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert sysm.spectral_radius(swap) == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_eigensolve(self):
        for seed in range(5):
            _, sys, _ = random_system(seed + 10)
            if sys.M == 0:
                continue
            expected = np.max(np.abs(np.linalg.eigvals(sys.P.toarray())))
            got = sysm.spectral_radius(sys.P)
            assert got == pytest.approx(expected, abs=1e-10)
            assert got < 1.0

    def test_negative_rejected(self):
        with pytest.raises(sysm.SystemMatrixError):
            sysm.spectral_radius(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_periodic_chain_uses_dense_fallback(self):
        # power-iteration norm ratios oscillate on these periodic matrices;
        # the lopsided 2 x 2 has eigenvalues +-1/2
        lopsided = np.array([[0.0, 2.0], [0.125, 0.0]])
        assert sysm.spectral_radius(lopsided) == pytest.approx(0.5, abs=1e-12)
        # a 3-cycle, eigenvalues the cube roots of 2 * 0.5 * 0.125
        cycle = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.5], [0.125, 0.0, 0.0]])
        assert sysm.spectral_radius(cycle) == pytest.approx(0.5, abs=1e-12)

    def test_no_convergence_reports_estimate(self):
        # one solve cannot close the bracket; the error carries it
        _, sys, _ = random_system(12)
        expected = np.max(np.abs(np.linalg.eigvals(sys.P.toarray())))
        with pytest.raises(sysm.NoConvergenceError) as exc:
            sysm.spectral_radius(sys.P, max_iters=1)
        lo, hi = exc.value.bracket
        assert exc.value.iterations == 1
        assert lo < hi and lo <= expected <= hi
        assert lo <= exc.value.estimate <= hi
        assert f"[{lo:.12g}, {hi:.12g}]" in str(exc.value)

    @pytest.mark.parametrize("M", [500, 2000])
    def test_clustered_synthetic_chain(self, M):
        # P = (S + S^2) / 3 for the cyclic shift S: its top eigenvalues lie
        # within a relative 2e-5 of 2/3 at M = 500
        P = synthetic_chain(M).P
        start = time.perf_counter()
        rho = sysm.spectral_radius(P)
        assert time.perf_counter() - start < 1.0
        assert rho == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_rows_nilpotent_and_reducible(self):
        zero_row = np.array([[0.0, 0.5, 0.2], [0.4, 0.0, 0.3], [0.0, 0.0, 0.0]])
        # the leading block's eigenvalues solve x^2 = 0.5 * 0.4
        assert sysm.spectral_radius(zero_row) == pytest.approx(math.sqrt(0.2), abs=1e-12)
        # an acyclic chain of links is nilpotent: radius 0 without a solve
        chain = sp.diags(np.full(49, 0.9), 1, format="csr")
        assert sysm._perron_bracket(chain) == (0.0, 0.0, 0)
        assert sysm.spectral_radius(chain) == 0.0
        # a stored zero closes no cycle
        stored_zero = sp.csr_matrix(([0.5, 0.0], [1, 0], [0, 1, 2]), shape=(2, 2))
        assert sysm._perron_bracket(stored_zero) == (0.0, 0.0, 0)
        # upper triangular: the radius is the larger diagonal entry, in either row
        for T, rho in (([[0.6, 1.0], [0.0, 0.5]], 0.6), ([[0.5, 1.0], [0.0, 0.6]], 0.6)):
            assert sysm.spectral_radius(np.array(T)) == pytest.approx(rho, abs=1e-12)
        # strong components {0, 1} (radius 0.579), {2} (0.7) and a zero row {3}
        reducible = np.array(
            [[0.5, 0.3, 0.0, 0.0], [0.1, 0.2, 0.0, 0.0], [0.2, 0.0, 0.7, 0.1], [0.0, 0.0, 0.0, 0.0]]
        )
        assert sysm.spectral_radius(reducible) == pytest.approx(0.7, abs=1e-12)

    def test_bracket_contains_dense_eigenvalue(self):
        for seed in range(10, 45):
            _, sys, _ = random_system(seed)
            if sys.M == 0:
                continue
            expected = np.max(np.abs(np.linalg.eigvals(sys.P.toarray())))
            lo, hi, solves = sysm._perron_bracket(sys.P)
            assert lo * (1.0 - 1e-14) <= expected <= hi * (1.0 + 1e-14)
            assert hi - lo <= 1e-12 * hi and solves <= 10


class TestExactOracle:
    def test_single_sensor_one_step(self):
        anchors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        p = np.array([[0.2, 0.3]])
        field = dep.SensorField(2, anchors, p)
        tris = dep.triangulate_all(field)
        sys = sysm.build_system_matrices(field, tris)
        X = sysm.exact_locations_oracle(sys, sysm.AnchorBlock(field.anchor_block()))
        np.testing.assert_allclose(X, p, atol=1e-12)

    def test_demo_reproduces_truth(self):
        field, sys, anchors = demo_system()
        X = sysm.exact_locations_oracle(sys, anchors)
        np.testing.assert_allclose(X, field.true_sensor_matrix(), atol=1e-8)

    def test_random_field_reproduces_truth(self):
        field, sys, anchors = random_system(7, gamma=1.0, side=11.0)
        assert sys.M >= 30
        X = sysm.exact_locations_oracle(sys, anchors)
        err = np.abs(X - field.true_sensor_matrix()).max()
        assert err < 1e-8

    def test_residual_invariant(self):
        _, sys, anchors = random_system(8)
        X = sysm.exact_locations_oracle(sys, anchors)
        A = np.eye(sys.M) - sys.P.toarray()
        residual = np.abs(A @ X - sys.B @ anchors.U).max()
        assert residual < 1e-10

    def test_large_chain_meets_residual_bound(self):
        sys = synthetic_chain(10_000)
        anchors = sysm.AnchorBlock(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        X = sysm.exact_locations_oracle(sys, anchors)
        rhs = sys.B @ anchors.U
        assert np.abs(X - sys.P @ X - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())
        # fixed-point iteration as an independent reference: rho(P) = 2/3
        ref = np.zeros_like(rhs)
        for _ in range(120):
            ref = sys.P @ ref + rhs
        np.testing.assert_allclose(X, ref, rtol=0.0, atol=1e-12)

    def test_singular_system_raises(self):
        # two sensors feeding only each other never reach an anchor
        B = sp.csr_matrix((2, 3))
        P = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        sys = sysm.SystemMatrices(B, P, 2)
        with pytest.raises(sysm.SingularSystemError):
            sysm.exact_locations_oracle(sys, sysm.AnchorBlock(np.eye(3, 2)))


class TestFundamentalSeries:
    def test_zero_terms_is_identity(self):
        out = fundamental_matrix_series(sp.csr_matrix((2, 2)), 0)
        np.testing.assert_array_equal(out, np.eye(2))

    def test_scalar_geometric_sum(self):
        out = fundamental_matrix_series(np.array([[0.5]]), 20)
        # geometric oracle: sum_{k=0}^{20} (1/2)^k = 2 - 2^-20
        expected = 2.0 - 0.5**20
        assert out[0, 0] == pytest.approx(expected, abs=1e-15)
        assert abs(out[0, 0] - 2.0) < 1e-6

    def test_converges_to_inverse_at_rho_rate(self):
        _, sys, _ = random_system(21)
        assert sys.M >= 5
        P = sys.P
        rho = sysm.spectral_radius(P)
        inv = np.linalg.inv(np.eye(sys.M) - P.toarray())
        ts = np.arange(10, 60, 5)
        errs = [np.abs(fundamental_matrix_series(P, t) - inv).max() for t in ts]
        slope = np.polyfit(ts, np.log(errs), 1)[0]
        assert math.exp(slope) == pytest.approx(rho, abs=0.05)

    def test_neumann_equivalence_with_oracle(self):
        _, sys, anchors = random_system(22)
        X = sysm.exact_locations_oracle(sys, anchors)
        rho = sysm.spectral_radius(sys.P)
        T = int(math.ceil(math.log(1e-10) / math.log(rho))) if rho > 0 else 1
        approx = fundamental_matrix_series(sys.P, T) @ (sys.B @ anchors.U)
        np.testing.assert_allclose(approx, X, atol=1e-8)


class TestAbsorbing:
    def test_no_anchor_coupling_is_not_absorbing(self):
        B = sp.csr_matrix((2, 3))
        P = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        sys = sysm.SystemMatrices(B, P, 2)
        assert not sysm.absorbing_check(sys)
        assert sysm.spectral_radius(sys.P) >= 1.0 - 1e-12

    def test_demo_is_absorbing(self):
        _, sys, _ = demo_system()
        assert sysm.absorbing_check(sys)

    def test_random_fields_absorbing_iff_rho_below_one(self):
        for seed in range(30, 45):
            _, sys, _ = random_system(seed)
            if sys.M == 0:
                continue
            absorbing = sysm.absorbing_check(sys)
            rho = sysm.spectral_radius(sys.P)
            assert absorbing == (rho < 1.0 - 1e-9)
            assert absorbing

    def test_indirect_reachability(self):
        # chain 0 -> 1 -> anchor: both rows absorb even though row 0 skips B
        B = sp.csr_matrix(np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
        P = sp.csr_matrix(np.array([[0.0, 1.0], [0.5, 0.0]]))
        sys = sysm.SystemMatrices(B, P, 2)
        assert sysm.absorbing_check(sys)

    def test_closed_cycle_beside_an_absorbing_row(self):
        # row 0 absorbs, rows 1 and 2 only feed each other; a stored zero
        # from row 1 to row 0 is no link
        B = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        P = sp.csr_matrix((np.array([0.0, 1.0, 1.0]), (np.array([1, 1, 2]), np.array([0, 2, 1]))), shape=(3, 3))
        assert P.nnz == 3
        assert not sysm.absorbing_check(sysm.SystemMatrices(B, P, 2))
        P_linked = P.copy()
        P_linked.data[0] = 0.5
        assert sysm.absorbing_check(sysm.SystemMatrices(B, P_linked, 2))


class TestDump:
    def test_dump_roundtrip(self, tmp_path):
        _, sys, _ = demo_system()
        path = tmp_path / "mats.tsv"
        dump_matrices(sys, path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert len(lines) == sys.B.nnz + sys.P.nnz
        got_b = np.zeros(sys.B.shape)
        got_p = np.zeros(sys.P.shape)
        for ln in lines:
            name, r, c, v = ln.split("\t")
            if name == "B":
                got_b[int(r) - 1, int(c) - 1] = float(v)
            else:
                got_p[int(r) - 1, int(c) - 1] = float(v)
        np.testing.assert_array_equal(got_b, sys.B.toarray())
        np.testing.assert_array_equal(got_p, sys.P.toarray())

    def test_dump_is_deterministic(self, tmp_path):
        _, sys, _ = demo_system()
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        dump_matrices(sys, a)
        dump_matrices(sys, b)
        assert a.read_bytes() == b.read_bytes()
