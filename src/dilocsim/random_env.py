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
step block, draw): one generator serves a block of ``_BLOCK`` consecutive
iterations and draws all of their randomness at once, in a fixed order, so
any step can be recomputed independently and reproducibly from its block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .deployment import _u64
from .engine import IterationState, NonFiniteStateError, RunTrace, _check_dims, _trace_loop
from .system import (
    AnchorBlock,
    SingularSystemError,
    SystemMatrices,
    _max_abs_eigenvalue,
    _perron_bracket,
    _solve_identity_minus,
    exact_locations_oracle,
)

_ENV_STREAM = 301
_BIAS_STREAM = 302
_BLOCK = 16  # iterations served by one keyed generator

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
        if not 0.0 < param < np.inf:
            raise PersistenceViolationError(f"harmonic scale must be positive and finite, got {param}")
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
    """

    link_prob: object = 1.0
    channel_noise_var: float = 0.0
    bias_B: np.ndarray | None = None
    bias_P: np.ndarray | None = None
    fluct_var: float = 0.0
    seed: int = 0


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
    for name in ("channel_noise_var", "fluct_var"):
        value = getattr(model, name)
        if not 0.0 <= value < np.inf:
            raise RandomEnvError(f"{name} must be finite and nonnegative, got {value!r}")
    # a (B, P) pair of differently shaped arrays is ragged, so only a non-pair
    # may go through np.ndim; a 0-d array counts as a scalar
    scalar = not isinstance(model.link_prob, (tuple, list)) and np.ndim(model.link_prob) == 0
    if scalar and not 0.0 < float(model.link_prob) <= 1.0:
        raise RandomEnvError("link probability must lie in (0, 1]")
    if not scalar and len(model.link_prob) != 2:
        raise RandomEnvError("per-link probabilities must be a (B, P) pair")
    probs = (model.link_prob,) * 2 if scalar else model.link_prob
    out = []
    for prob, bias, block, name in zip(probs, (model.bias_B, model.bias_P), (sys.B, sys.P), "BP"):
        rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
        if scalar:
            q = np.full(block.nnz, float(prob))
        else:
            q = _on_links(prob, block, rows, "link probability")
            if q.size and not (0.0 < q.min() and q.max() <= 1.0):
                raise RandomEnvError("link probabilities must lie in (0, 1]")
        bias = np.zeros(block.nnz) if bias is None else _on_links(bias, block, rows, "bias")
        if not np.isfinite(bias).all():
            raise RandomEnvError(f"bias_{name} must be finite on every link of {name}")
        slots = (rows[:, None] * sys.m + np.arange(sys.m)).ravel()
        out.append(_Links(block.indices, slots, q, bias, block.data + bias))
    return out[0], out[1]


def _on_links(values, block: sp.csr_matrix, rows: np.ndarray, name: str) -> np.ndarray:
    """A dense block-shaped array's entries on the block's links, in CSR order."""
    values = np.asarray(values, dtype=float)
    if values.shape != block.shape:
        raise RandomEnvError(f"{name} shape {values.shape} does not match block shape {block.shape}")
    return values[rows, block.indices]


def _csr(values: np.ndarray, block: sp.csr_matrix) -> sp.csr_matrix:
    """Per-link values in CSR order, on the block's support."""
    return sp.csr_matrix((values, block.indices, block.indptr), shape=block.shape)


def _draw(model: NoiseModel, links: tuple[_Links, _Links], m: int, block: int, draw: int):
    """The draws of one block of iterations, deterministic in (seed, block, draw).

    Row k of every array belongs to iteration ``block * _BLOCK + k``. Returns
    the B and P link masks, weight estimates (data + bias) + fluctuation and
    channel noise; the noise is None when the model has none.
    """
    rng = np.random.default_rng([_u64(model.seed), _ENV_STREAM, _u64(block), _u64(draw)])
    alive = [rng.random((_BLOCK, l.q.size)) < l.q for l in links]
    w = [np.broadcast_to(l.w, (_BLOCK, l.w.size)) for l in links]
    if model.fluct_var > 0.0:
        w = [l.w + rng.normal(0.0, np.sqrt(model.fluct_var), size=(_BLOCK, l.w.size)) for l in links]
    v = None
    if model.channel_noise_var > 0.0:
        v = [rng.normal(0.0, np.sqrt(model.channel_noise_var), size=(_BLOCK, l.w.size, m)) for l in links]
    return alive, w, v


def _check_index(t: int, draw: int):
    # iterations count from 0, and a negative block or draw would wrap to 2^64 - 1 in the seed
    if t < 0 or draw < 0:
        raise RandomEnvError(f"iteration t and draw must be nonnegative, got t={t}, draw={draw}")


def sample_environment(model: NoiseModel, sys: SystemMatrices, t: int, draw: int = 0) -> EnvironmentSample:
    """Draw one iteration's environment, deterministic in (seed, t, draw).

    The iteration's randomness is row ``t % _BLOCK`` of its block's draws,
    made in a fixed order for the whole block: B link masks, P link masks,
    B weight fluctuations, P weight fluctuations, B channel noise, P channel
    noise. ``draw`` separates independent replications at the same iteration.
    RandomEnvError for t < 0 or draw < 0.
    """
    _check_index(t, draw)
    links = _layout(model, sys)
    block, k = divmod(t, _BLOCK)
    alive, w, v = _draw(model, links, sys.m, block, draw)
    v = [np.zeros((l.w.size, sys.m)) for l in links] if v is None else [a[k] for a in v]
    return EnvironmentSample(
        alive[0][k].astype(float), alive[1][k].astype(float), w[0][k], w[1][k], v[0], v[1]
    )


def _block_terms(model, links, U, shape, block: int, draw: int):
    """One block's P gains, P channel noise (None without it) and B row sums.

    A live link's gain is its estimated weight over its alive probability.
    The anchor terms do not depend on the state, so the whole block's B row
    sums come from one ``bincount`` over per-iteration output slots; each
    slot still sums its links in CSR order.
    """
    b = links[0]
    alive, w, v = _draw(model, links, shape[1], block, draw)
    e_b, e_p = (a * wt / l.q for a, wt, l in zip(alive, w, links))
    received = np.take(U, b.cols, axis=0)
    if v is not None:
        received = received + v[0]
    size = shape[0] * shape[1]
    slots = (b.slots + size * np.arange(_BLOCK)[:, None]).ravel()
    b_sums = np.bincount(slots, weights=(e_b[:, :, None] * received).ravel(), minlength=_BLOCK * size)
    return e_p, None if v is None else v[1], b_sums.reshape((_BLOCK, *shape))


def _step(x, p: _Links, terms, k: int, alpha: float) -> np.ndarray:
    """Step k of a block with the block's terms.

    A row sums its links in CSR order as (P-part) + (B-part), the order of
    the sparse products P x + B U, so a quiet step with a constant gain
    equals diloc_rel_step bit for bit. Channel noise is added to the
    received value before the gain multiplies it.
    """
    e_p, v_p, b_sums = terms
    # np.take gathers whole rows several times faster than fancy indexing x[p.cols]
    received = np.take(x, p.cols, axis=0)
    if v_p is not None:
        received = received + v_p[k]
    p_sums = np.bincount(p.slots, weights=(e_p[k][:, None] * received).ravel(), minlength=x.size)
    total = p_sums.reshape(x.shape) + b_sums[k]
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
    relaxed deterministic update exactly. RandomEnvError for t < 0 or
    draw < 0.
    """
    _check_index(t, draw)
    links = _layout(model, sys)
    _check_dims(x, sys, anchors)
    U = np.asarray(anchors.U, dtype=float)
    block, k = divmod(t, _BLOCK)
    terms = _block_terms(model, links, U, x.shape, block, draw)
    return _step(x, links[1], terms, k, float(schedule(t)))


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
    so step_tol defaults to off; the trace is the interesting output. The
    run continues from ``initial.t``: step t takes gain alpha(t) and row
    t % 16 of block t // 16's draws, so a run resumed from a trace's last
    state repeats the unbroken one bit for bit.
    """
    links = _layout(model, sys)
    U = np.asarray(anchors.U, dtype=float)
    # the loop counts t up one at a time, so each block is drawn once
    terms = functools.lru_cache(maxsize=1)(
        lambda block: _block_terms(model, links, U, (sys.M, sys.m), block, 0)
    )

    def step(t, x):
        block, k = divmod(t, _BLOCK)
        alpha = float(schedule(t))
        return _step(x, links[1], terms(block), k, alpha), alpha

    return _trace_loop(
        "dlre", model.seed if seed is None else seed, initial, sys, anchors, step,
        max_iters, step_tol, snapshot_stride, oracle,
    )


def dlre_limit(sys: SystemMatrices, anchors: AnchorBlock, model: NoiseModel) -> DlreLimit:
    """Deterministic limit (I - P - S_P)^-1 (B + S_B) U and its error.

    The localization error is the Frobenius distance between that limit and
    the exact positions (I - P)^-1 B U; it vanishes exactly when both biases
    do, whatever the link failures and channel noise.
    """
    b, p = _layout(model, sys)
    U = np.asarray(anchors.U, dtype=float)
    if not b.bias.any() and not p.bias.any():
        # zero bias: the limit is the exact solution by definition
        return DlreLimit(exact_locations_oracle(sys, anchors), 0.0)
    perturbed = _csr(p.w, sys.P)
    # rho(P + S_P) <= rho(|P + S_P|), with equality when no biased weight is
    # negative; otherwise the signed radius decides what the bracket cannot
    limit = 1.0 - 1e-12
    lo, hi, _ = _perron_bracket(abs(perturbed), threshold=limit)
    if hi >= limit and (perturbed.data.min() >= 0.0 or _max_abs_eigenvalue(perturbed) >= limit):
        raise SingularSystemError(
            f"spectral radius of the biased sensor block is not below {limit!r} (that of "
            f"|P + S_P| is in [{lo:.6g}, {hi:.6g}]); the low-error-bias assumption is violated"
        )
    d_star = _solve_identity_minus(perturbed, _csr(b.w, sys.B) @ U, 1e-9, "biased solve")
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
        out.append(_csr(vals, block).toarray())
    return out[0], out[1]
