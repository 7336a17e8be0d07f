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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .deployment import _u64
from .engine import IterationState, NonFiniteStateError, RunTrace, _trace_loop
from .system import AnchorBlock, SingularSystemError, SystemMatrices, exact_locations_oracle

_ENV_STREAM = 301
_BIAS_STREAM = 302
_DIST_STREAM = 303

SCHEDULE_FAMILIES = ("harmonic", "power")


class RandomEnvError(ValueError):
    pass


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
        b, p = _layout(self, sys)
        return b.q, p.q


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


@dataclass(frozen=True)
class _Links:
    """One block's links in CSR order, built once per run.

    ``cols`` is the sending node of every link and ``slots`` the flat
    (sensor row, coordinate) output index of every (link, coordinate) pair,
    so one ``bincount`` sums per-link terms into sensor rows in the order a
    CSR product would. ``q`` is the alive probability, ``bias`` the weight
    bias (zero without one) and ``w`` the estimated weight data + bias.
    """

    cols: np.ndarray
    slots: np.ndarray
    q: np.ndarray
    bias: np.ndarray
    w: np.ndarray


def _layout(model: NoiseModel, sys: SystemMatrices) -> tuple[_Links, _Links]:
    """B's and P's per-link data, validated; off-link entries are dropped."""
    scalar = np.isscalar(model.link_prob)
    if scalar and not 0.0 < float(model.link_prob) <= 1.0:
        raise RandomEnvError("link probability must lie in (0, 1]")
    probs = (model.link_prob,) * 2 if scalar else model.link_prob
    out = []
    for prob, bias, block in zip(probs, (model.bias_B, model.bias_P), (sys.B, sys.P)):
        rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
        if scalar:
            q = np.full(block.nnz, float(prob))
        else:
            q = np.asarray(prob, dtype=float)[rows, block.indices]
            if q.size and not (0.0 < q.min() and q.max() <= 1.0):
                raise RandomEnvError("link probabilities must lie in (0, 1]")
        if bias is None:
            bias = np.zeros(block.nnz)
        else:
            bias = np.asarray(bias, dtype=float)
            if bias.shape != block.shape:
                raise RandomEnvError(
                    f"bias shape {bias.shape} does not match block shape {block.shape}"
                )
            bias = bias[rows, block.indices]
        slots = (rows[:, None] * sys.m + np.arange(sys.m)).ravel()
        out.append(_Links(block.indices, slots, q, bias, block.data + bias))
    return out[0], out[1]


def _dense(values: np.ndarray, block: sp.csr_matrix) -> np.ndarray:
    """Per-link values in CSR order, scattered onto the block's support."""
    return sp.csr_matrix((values, block.indices, block.indptr), shape=block.shape).toarray()


def effective_biases(model: NoiseModel, sys: SystemMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Bias matrices projected onto the link support, as dense arrays.

    This is the bias the iteration actually experiences: a sensor only ever
    estimates the weights of its own m+1 links, so off-link bias entries are
    meaningless and dropped everywhere (sampling and limit alike).
    """
    b, p = _layout(model, sys)
    return _dense(b.bias, sys.B), _dense(p.bias, sys.P)


def _zero_mean(rng, sampler, var: float, size) -> np.ndarray:
    if sampler is not None:
        return np.asarray(sampler(rng, size), dtype=float)
    return rng.normal(0.0, np.sqrt(var), size=size)


def _draw(model: NoiseModel, links: tuple[_Links, _Links], m: int, t: int, draw: int):
    """One iteration's draws, deterministic in (seed, t, draw).

    Returns the B and P link masks, weight estimates (data + bias) +
    fluctuation and channel noise; the noise is None when the model has none.
    """
    rng = np.random.default_rng([_u64(model.seed), _ENV_STREAM, _u64(t), _u64(draw)])
    alive = [(rng.random(l.q.size) < l.q).astype(float) for l in links]
    w = [l.w for l in links]
    if model.fluct_var > 0.0 or model.fluct_sampler is not None:
        w = [l.w + _zero_mean(rng, model.fluct_sampler, model.fluct_var, l.w.size) for l in links]
    v = None
    if model.channel_noise_var > 0.0 or model.channel_sampler is not None:
        v = [
            _zero_mean(rng, model.channel_sampler, model.channel_noise_var, (l.w.size, m))
            for l in links
        ]
    return alive, w, v


def sample_environment(model: NoiseModel, sys: SystemMatrices, t: int, draw: int = 0) -> EnvironmentSample:
    """Draw one iteration's environment, deterministic in (seed, t, draw).

    Draw order within the stream is fixed: B link mask, P link mask, B weight
    fluctuations, P weight fluctuations, B channel noise, P channel noise.
    ``draw`` separates independent replications at the same iteration.
    """
    links = _layout(model, sys)
    alive, w, v = _draw(model, links, sys.m, t, draw)
    if v is None:
        v = [np.zeros((l.w.size, sys.m)) for l in links]
    return EnvironmentSample(alive[0], alive[1], w[0], w[1], v[0], v[1])


def _row_sums(links: _Links, terms: np.ndarray, shape) -> np.ndarray:
    size = shape[0] * shape[1]
    return np.bincount(links.slots, weights=terms.ravel(), minlength=size).reshape(shape)


def _step(x, links, U, model, alpha: float, t: int, draw: int) -> np.ndarray:
    """dlre_step on a prebuilt layout.

    Each row sum runs over its links in CSR order and the terms are added as
    (P x + B U) + noise, the order of the sparse products this replaces, so a
    quiet step with a constant gain equals diloc_rel_step bit for bit.
    """
    b, p = links
    alive, w, v = _draw(model, links, x.shape[1], t, draw)
    e_b = alive[0] * w[0] / b.q
    e_p = alive[1] * w[1] / p.q
    total = _row_sums(p, e_p[:, None] * x[p.cols], x.shape) + _row_sums(
        b, e_b[:, None] * U[b.cols], x.shape
    )
    if v is not None:
        total += _row_sums(p, e_p[:, None] * v[1], x.shape) + _row_sums(
            b, e_b[:, None] * v[0], x.shape
        )
    return (1.0 - alpha) * x + alpha * total


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
    links = _layout(model, sys)
    U = np.asarray(anchors.U, dtype=float)
    return _step(x, links, U, model, float(schedule(t)), t, draw)


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
    links = _layout(model, sys)
    U = np.asarray(anchors.U, dtype=float)

    def step(t, x):
        alpha = float(schedule(t))
        return _step(x, links, U, model, alpha, t, 0), alpha

    trace = RunTrace(
        mode="dlre",
        seed=model.seed if seed is None else seed,
        per_sensor_messages=sys.m + 1,
        per_sensor_flops=2 * sys.m + 3,
        n_sensors=sys.M,
    )
    return _trace_loop(trace, initial.X, step, max_iters, step_tol, snapshot_stride, oracle)


def dlre_limit(sys: SystemMatrices, anchors: AnchorBlock, model: NoiseModel) -> DlreLimit:
    """Deterministic limit (I - P - S_P)^-1 (B + S_B) U and its error.

    The localization error is the Frobenius distance between that limit and
    the exact positions (I - P)^-1 B U; it vanishes exactly when both biases
    do, whatever the link failures and channel noise.
    """
    b, p = _layout(model, sys)
    M = sys.M
    U = np.asarray(anchors.U, dtype=float)
    if M == 0:
        return DlreLimit(np.zeros((0, U.shape[1])), 0.0)
    if not b.bias.any() and not p.bias.any():
        # zero bias: the limit is the exact solution by definition
        return DlreLimit(exact_locations_oracle(sys, anchors), 0.0)
    perturbed = _dense(p.w, sys.P)
    rho = float(np.max(np.abs(np.linalg.eigvals(perturbed))))
    if rho >= 1.0 - 1e-12:
        raise SingularSystemError(
            f"spectral radius of the biased sensor block is {rho:.6g}; "
            "the low-error-bias assumption is violated"
        )
    A = np.eye(M) - perturbed
    rhs = _dense(b.w, sys.B) @ U
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
        vals = np.zeros(block.nnz)
        if scale != 0.0 and block.nnz:
            vals = rng.normal(size=block.nnz)
            vals *= scale / np.linalg.norm(vals)
        out.append(_dense(vals, block))
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
