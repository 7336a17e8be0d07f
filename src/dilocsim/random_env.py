"""Random operating environments and the robust localization iteration.

Three independent noise mechanisms act at once: the per-row system weights
are only estimated (a fixed bias plus zero-mean fluctuation on every link
weight), directed links fail independently per iteration, and whatever does
arrive over a live link is corrupted by additive channel noise. The robust
iteration compensates dead links by the inverse link probability and drives
its gain to zero under a persistence schedule (gains sum to infinity, their
squares do not), which averages the zero-mean effects away; only the fixed
weight biases survive into the limit.

All draws come from counter-style seeded streams keyed by (seed, purpose,
iteration, draw) with a fixed intra-stream order, so any part of a step can
be recomputed independently and reproducibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .engine import IterationState, NonFiniteStateError as EngineNonFiniteStateError, RunTrace
from .system import AnchorBlock, SingularSystemError, SystemMatrices, exact_locations_oracle

_ENV_STREAM = 301
_BIAS_STREAM = 302
_DIST_STREAM = 303

SCHEDULE_FAMILIES = ("harmonic", "power")


class RandomEnvError(ValueError):
    pass


class NonFiniteStateError(RandomEnvError, EngineNonFiniteStateError):
    """A robust-iteration step produced a NaN or infinite state."""


class PersistenceViolationError(RandomEnvError):
    """Requested gain schedule breaks the persistence conditions."""


@dataclass(frozen=True)
class WeightSchedule:
    """Decreasing gain sequence: harmonic a/(t+1) or power (t+1)^-p."""

    family: str
    param: float

    def __call__(self, t: int) -> float:
        if self.family == "harmonic":
            return self.param / (t + 1.0)
        return (t + 1.0) ** (-self.param)


def make_weight_schedule(family: str, param: float) -> WeightSchedule:
    """Validated persistence schedule: gains sum to infinity, squares do not.

    Harmonic schedules qualify for any positive scale. Power schedules need
    an exponent in (1/2, 1]: at or below 1/2 the squared gains diverge, above
    1 the gains themselves become summable.
    """
    if family not in SCHEDULE_FAMILIES:
        raise PersistenceViolationError(f"unknown schedule family {family!r}")
    if family == "harmonic":
        if param <= 0:
            raise PersistenceViolationError("harmonic scale must be positive")
    else:
        if not 0.5 < param <= 1.0:
            raise PersistenceViolationError(
                f"power exponent must lie in (0.5, 1], got {param}"
            )
    return WeightSchedule(family, float(param))


@dataclass(frozen=True)
class NoiseModel:
    """Random-environment description.

    link_prob: probability a directed link is alive at each iteration,
        scalar or a pair of dense arrays shaped like (B, P); entries must
        lie in (0, 1] and are assumed known to the receiving sensor.
    channel_noise_var: per-coordinate variance of the additive noise on
        every received state/anchor value.
    bias_B / bias_P: fixed weight-estimation errors. Only entries on actual
        links take effect anywhere (off-link entries are projected away),
        matching a protocol in which each sensor estimates its own row.
    fluct_var: per-link variance of the zero-mean weight fluctuation
        redrawn at every iteration.
    channel_sampler / fluct_sampler: optional zero-mean draw hooks
        (rng, size) -> array for non-Gaussian environments; only bounded
        second moments are required of them.
    """

    link_prob: object = 1.0
    channel_noise_var: float = 0.0
    bias_B: np.ndarray | None = None
    bias_P: np.ndarray | None = None
    fluct_var: float = 0.0
    seed: int = 0
    channel_sampler: object = None
    fluct_sampler: object = None

    def link_prob_data(self, sys: SystemMatrices) -> tuple[np.ndarray, np.ndarray]:
        """Per-link alive probabilities aligned with the CSR data arrays."""
        if np.isscalar(self.link_prob):
            q = float(self.link_prob)
            if not 0.0 < q <= 1.0:
                raise RandomEnvError("link probability must lie in (0, 1]")
            return (
                np.full(sys.B.nnz, q),
                np.full(sys.P.nnz, q),
            )
        q_b_full, q_p_full = self.link_prob
        q_b = _gather_links(np.asarray(q_b_full, dtype=float), sys.B)
        q_p = _gather_links(np.asarray(q_p_full, dtype=float), sys.P)
        if (q_b.size and not (0.0 < q_b.min() and q_b.max() <= 1.0)) or (
            q_p.size and not (0.0 < q_p.min() and q_p.max() <= 1.0)
        ):
            raise RandomEnvError("link probabilities must lie in (0, 1]")
        return q_b, q_p


@dataclass(frozen=True)
class EnvironmentSample:
    """One iteration's randomness: link mask, noisy weights, channel noise.

    Arrays are per-link, aligned with the CSR data layout of the system's
    B and P blocks; v_B / v_P carry one noise value per link per coordinate.
    """

    alive_B: np.ndarray
    alive_P: np.ndarray
    b_hat_data: np.ndarray
    p_hat_data: np.ndarray
    v_B: np.ndarray
    v_P: np.ndarray

    def B_hat(self, sys: SystemMatrices) -> sp.csr_matrix:
        return sp.csr_matrix((self.b_hat_data, sys.B.indices, sys.B.indptr), shape=sys.B.shape)

    def P_hat(self, sys: SystemMatrices) -> sp.csr_matrix:
        return sp.csr_matrix((self.p_hat_data, sys.P.indices, sys.P.indptr), shape=sys.P.shape)


@dataclass(frozen=True)
class DlreLimit:
    """Almost-sure limit of the robust iteration and its localization error."""

    d_star: np.ndarray
    e_l: float


def _gather_links(dense: np.ndarray, block: sp.csr_matrix) -> np.ndarray:
    rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
    return dense[rows, block.indices]


def effective_biases(model: NoiseModel, sys: SystemMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Bias matrices projected onto the link support, as dense arrays.

    This is the bias the iteration actually experiences: a sensor only ever
    estimates the weights of its own m+1 links, so off-link bias entries are
    meaningless and dropped everywhere (sampling and limit alike).
    """
    s_b = np.zeros(sys.B.shape)
    s_p = np.zeros(sys.P.shape)
    for target, bias, block in ((s_b, model.bias_B, sys.B), (s_p, model.bias_P, sys.P)):
        if bias is None:
            continue
        bias = np.asarray(bias, dtype=float)
        if bias.shape != block.shape:
            raise RandomEnvError(
                f"bias shape {bias.shape} does not match block shape {block.shape}"
            )
        rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
        target[rows, block.indices] = bias[rows, block.indices]
    return s_b, s_p


def _u64(v) -> int:
    return int(v) & 0xFFFFFFFFFFFFFFFF


def sample_environment(model: NoiseModel, sys: SystemMatrices, t: int, draw: int = 0) -> EnvironmentSample:
    """Draw one iteration's environment, deterministic in (seed, t, draw).

    Draw order within the stream is fixed: B link mask, P link mask, B weight
    fluctuations, P weight fluctuations, B channel noise, P channel noise.
    ``draw`` separates independent replications at the same iteration.
    """
    rng = np.random.default_rng([_u64(model.seed), _ENV_STREAM, _u64(t), _u64(draw)])
    q_b, q_p = model.link_prob_data(sys)
    n_b, n_p = sys.B.nnz, sys.P.nnz
    m = sys.m
    alive_b = (rng.random(n_b) < q_b).astype(float)
    alive_p = (rng.random(n_p) < q_p).astype(float)
    if model.fluct_var > 0.0 or model.fluct_sampler is not None:
        if model.fluct_sampler is not None:
            fl_b = np.asarray(model.fluct_sampler(rng, n_b), dtype=float)
            fl_p = np.asarray(model.fluct_sampler(rng, n_p), dtype=float)
        else:
            std = np.sqrt(model.fluct_var)
            fl_b = rng.normal(0.0, std, size=n_b)
            fl_p = rng.normal(0.0, std, size=n_p)
    else:
        fl_b = np.zeros(n_b)
        fl_p = np.zeros(n_p)
    if model.channel_noise_var > 0.0 or model.channel_sampler is not None:
        if model.channel_sampler is not None:
            v_b = np.asarray(model.channel_sampler(rng, (n_b, m)), dtype=float)
            v_p = np.asarray(model.channel_sampler(rng, (n_p, m)), dtype=float)
        else:
            std = np.sqrt(model.channel_noise_var)
            v_b = rng.normal(0.0, std, size=(n_b, m))
            v_p = rng.normal(0.0, std, size=(n_p, m))
    else:
        v_b = np.zeros((n_b, m))
        v_p = np.zeros((n_p, m))
    s_b, s_p = effective_biases(model, sys)
    bias_b = _gather_links(s_b, sys.B) if model.bias_B is not None else np.zeros(n_b)
    bias_p = _gather_links(s_p, sys.P) if model.bias_P is not None else np.zeros(n_p)
    return EnvironmentSample(
        alive_B=alive_b,
        alive_P=alive_p,
        b_hat_data=sys.B.data + bias_b + fl_b,
        p_hat_data=sys.P.data + bias_p + fl_p,
        v_B=v_b,
        v_P=v_p,
    )


def dlre_step(
    x: np.ndarray,
    sys: SystemMatrices,
    anchors: AnchorBlock,
    model: NoiseModel,
    schedule,
    t: int,
    draw: int = 0,
) -> np.ndarray:
    """One robust update with time-varying gain.

    Each live link contributes its estimated weight scaled by 1/q (so dead
    links are unbiasedly compensated) applied to the received, channel-noisy
    value; the result is blended into the current state with gain alpha(t).
    With all randomness degenerate and a constant gain this reproduces the
    relaxed deterministic update exactly.
    """
    sample = sample_environment(model, sys, t, draw)
    q_b, q_p = model.link_prob_data(sys)
    alpha = float(schedule(t))
    U = np.asarray(anchors.U, dtype=float)
    eb = sample.alive_B * sample.b_hat_data / q_b
    ep = sample.alive_P * sample.p_hat_data / q_p
    EB = sp.csr_matrix((eb, sys.B.indices, sys.B.indptr), shape=sys.B.shape)
    EP = sp.csr_matrix((ep, sys.P.indices, sys.P.indptr), shape=sys.P.shape)
    rows_b = np.repeat(np.arange(sys.M), np.diff(sys.B.indptr))
    rows_p = np.repeat(np.arange(sys.M), np.diff(sys.P.indptr))
    noise = np.zeros_like(x)
    for j in range(sys.m):
        noise[:, j] = np.bincount(
            rows_p, weights=ep * sample.v_P[:, j], minlength=sys.M
        ) + np.bincount(rows_b, weights=eb * sample.v_B[:, j], minlength=sys.M)
    total = EP @ x + EB @ U + noise
    return (1.0 - alpha) * x + alpha * total


def run_dlre(
    initial: IterationState,
    sys: SystemMatrices,
    anchors: AnchorBlock,
    model: NoiseModel,
    schedule,
    max_iters: int,
    step_tol: float = 0.0,
    snapshot_stride: int = 10,
    oracle: np.ndarray | None = None,
    seed: int | None = None,
) -> RunTrace:
    """Run the robust iteration for max_iters steps (or until step_tol).

    The gain schedule shrinks the steps whether or not the estimate is good,
    so step_tol defaults to off; the trace is the interesting output.
    """
    x = initial.X.copy()
    m = sys.m
    trace = RunTrace(
        mode="dlre",
        seed=model.seed if seed is None else seed,
        per_sensor_messages=m + 1,
        per_sensor_flops=2 * m + 3,
        n_sensors=sys.M,
    )
    step_norms, alphas, oracle_errors = [], [], []
    t_final = 0
    for t in range(int(max_iters)):
        new = dlre_step(x, sys, anchors, model, schedule, t)
        step = float(np.abs(new - x).max()) if sys.M else 0.0
        if not math.isfinite(step):
            raise NonFiniteStateError(f"step {t + 1} left a non-finite sensor state")
        step_norms.append(step)
        alphas.append(float(schedule(t)))
        if oracle is not None:
            oracle_errors.append(float(np.abs(new - oracle).max()) if sys.M else 0.0)
        x = new
        t_final = t + 1
        if snapshot_stride and t_final % snapshot_stride == 0:
            trace.snapshots.append((t_final, x.copy()))
        if step_tol > 0.0 and step < step_tol:
            trace.converged_at = t_final
            break
    if not trace.snapshots or trace.snapshots[-1][0] != t_final:
        trace.snapshots.append((t_final, x.copy()))
    trace.step_norms = np.array(step_norms)
    trace.alphas = np.array(alphas)
    trace.oracle_errors = np.array(oracle_errors) if oracle is not None else None
    trace.final_state = x
    return trace


def dlre_limit(sys: SystemMatrices, anchors: AnchorBlock, model: NoiseModel) -> DlreLimit:
    """Deterministic limit (I - P - S_P)^-1 (B + S_B) U and its error.

    The localization error is the Frobenius distance between that limit and
    the exact positions (I - P)^-1 B U; it vanishes exactly when both biases
    do, whatever the link failures and channel noise.
    """
    s_b, s_p = effective_biases(model, sys)
    M = sys.M
    U = np.asarray(anchors.U, dtype=float)
    if M == 0:
        return DlreLimit(np.zeros((0, U.shape[1])), 0.0)
    if not s_b.any() and not s_p.any():
        # zero bias: the limit is the exact solution by definition
        return DlreLimit(exact_locations_oracle(sys, anchors), 0.0)
    perturbed = sys.P.toarray() + s_p
    rho = float(np.max(np.abs(np.linalg.eigvals(perturbed))))
    if rho >= 1.0 - 1e-12:
        raise SingularSystemError(
            f"spectral radius of the biased sensor block is {rho:.6g}; "
            "the low-error-bias assumption is violated"
        )
    A = np.eye(M) - perturbed
    rhs = (sys.B.toarray() + s_b) @ U
    d_star = np.linalg.solve(A, rhs)
    residual = np.abs(A @ d_star - rhs).max()
    if residual > 1e-9 * max(1.0, np.abs(rhs).max()):
        raise SingularSystemError(f"biased solve residual {residual:.3e} too large")
    x_star = exact_locations_oracle(sys, anchors)
    e_l = float(np.linalg.norm(d_star - x_star))
    return DlreLimit(d_star, e_l)


def random_link_bias(
    sys: SystemMatrices, scale: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Reproducible bias matrices on the link support with given Frobenius norm.

    Used to materialize 'bias of norm s' experiment configurations; each
    block is scaled independently so both biases carry the requested norm.
    """
    rng = np.random.default_rng([_u64(seed), _BIAS_STREAM])
    out = []
    for block in (sys.B, sys.P):
        dense = np.zeros(block.shape)
        if scale != 0.0 and block.nnz:
            vals = rng.normal(size=block.nnz)
            vals *= scale / np.linalg.norm(vals)
            rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
            dense[rows, block.indices] = vals
        out.append(dense)
    return out[0], out[1]


def noise_model_from_distance_noise(
    field,
    tris,
    sys: SystemMatrices,
    distance_std: float,
    n_draws: int = 200,
    seed: int = 0,
) -> NoiseModel:
    """Distance-level noise adapter: perturb distances, measure induced weights.

    Re-estimates every sensor's barycentric weights from distances corrupted
    by i.i.d. Gaussian errors, n_draws times; the mean shift of each link
    weight becomes the bias and the mean per-link variance the fluctuation
    variance. Draws whose perturbed distances are not realizable (or push the
    sensor outside its cell) are discarded, mirroring a sensor re-measuring.
    """
    from .geometry import GeometryError, barycentric_coordinates

    rng = np.random.default_rng([_u64(seed), _DIST_STREAM])
    bias_b = np.zeros(sys.B.shape)
    bias_p = np.zeros(sys.P.shape)
    variances = []
    for l in field.sensor_ids:
        t = tris[l]
        ids = (l,) + t.neighbor_ids
        exact = field.distance_submatrix(ids)
        dist = np.sqrt(exact.sq_dist)
        n = len(ids)
        iu = np.triu_indices(n, 1)
        samples = []
        for _ in range(n_draws):
            noisy = dist.copy()
            noisy[iu] = np.maximum(noisy[iu] + rng.normal(0.0, distance_std, size=len(iu[0])), 0.0)
            noisy[(iu[1], iu[0])] = noisy[iu]
            perturbed = type(exact)(exact.ids, noisy**2)
            try:
                w = barycentric_coordinates(l, t.neighbor_ids, perturbed, field.m)
            except GeometryError:
                continue
            samples.append(w.weights)
        if not samples:
            raise RandomEnvError(
                f"no realizable draws for sensor {l}; distance noise too large"
            )
        samples = np.array(samples)
        mean_w = samples.mean(axis=0)
        var_w = samples.var(axis=0)
        row = l - (field.m + 2)
        for k, mw, vw, ex in zip(t.neighbor_ids, mean_w, var_w, t.weights.weights):
            if k <= field.m + 1:
                bias_b[row, k - 1] = mw - ex
            else:
                bias_p[row, k - (field.m + 2)] = mw - ex
            variances.append(vw)
    return NoiseModel(
        link_prob=1.0,
        channel_noise_var=0.0,
        bias_B=bias_b,
        bias_P=bias_p,
        fluct_var=float(np.mean(variances)),
        seed=seed,
    )
