"""Deterministic localization iterations.

One step replaces every sensor's state with the convex combination of its
m+1 triangulation neighbors' states (optionally blended with its own state
through a relaxation gain). A state is the sensor rows and the iteration
number; the anchors stay in their AnchorBlock. Updates are synchronous:
all rows read iteration t to produce t+1, so a step is a pure function and
rows could be computed in parallel against the immutable previous state.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .deployment import _u64
from .system import AnchorBlock, SystemMatrices

_INIT_STREAM = 202  # seed-stream tag for initial guesses

MODES = ("diloc", "diloc_rel")


class EngineError(ValueError):
    pass


class DimensionMismatchError(EngineError):
    pass


class InvalidAlphaError(EngineError):
    pass


class NonFiniteStateError(EngineError):
    """A step produced a NaN or infinite state; the run can no longer converge."""


@dataclass(frozen=True)
class IterationState:
    """The M sensor rows X after iteration t; the anchors live in the AnchorBlock."""

    X: np.ndarray
    t: int = 0


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration record of one run plus protocol cost accounting.

    ``step_norms[k]`` is the max-norm state change of iteration k+1;
    ``oracle_errors`` holds max-norm distances to the reference positions and
    exists only when ground truth was supplied. Snapshots keep (iteration,
    sensor state) pairs at multiples of the stride, plus the final state
    whatever the stride.
    """

    mode: str
    seed: int | None
    n_sensors: int
    m: int
    step_norms: np.ndarray
    alphas: np.ndarray
    oracle_errors: np.ndarray | None
    snapshots: list
    converged_at: int | None

    @property
    def iterations(self) -> int:
        return len(self.step_norms)

    @property
    def final_state(self) -> np.ndarray:
        return self.snapshots[-1][1]

    @property
    def per_sensor_messages(self) -> int:
        return self.m + 1

    @property
    def per_sensor_flops(self) -> int:
        # m+1 multiplies and m adds, plus two blend operations under relaxation
        return 2 * self.m + 1 if self.mode == "diloc" else 2 * self.m + 3

    def messages_total(self, upto: int | None = None) -> int:
        t = self.iterations if upto is None else upto
        return self.per_sensor_messages * self.n_sensors * t

    def decay_rate_estimate(self, tail: int = 200) -> float | None:
        """Geometric decay ratio fitted to the tail of the step norms."""
        vals = self.step_norms[self.step_norms > 0.0]
        if len(vals) < 8:
            return None
        vals = vals[-min(tail, len(vals) // 2) :]
        if len(vals) < 4:
            return None
        slope = np.polyfit(np.arange(len(vals)), np.log(vals), 1)[0]
        return float(np.exp(slope))


def initial_state(anchors: AnchorBlock, n_sensors: int, seed=0) -> IterationState:
    """Random initial guess, i.i.d. uniform over the anchor bounding box.

    The guess does not need to start inside the anchor hull; convergence does
    not depend on it.
    """
    U = np.asarray(anchors.U, dtype=float)
    rng = np.random.default_rng([_u64(seed), _INIT_STREAM])
    return IterationState(rng.uniform(U.min(axis=0), U.max(axis=0), size=(n_sensors, U.shape[1])))


def state_from_guess(anchors: AnchorBlock, X0) -> IterationState:
    """The sensor rows X0 as the state at t = 0, one column per anchor coordinate."""
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2 or X0.shape[1] != np.shape(anchors.U)[1]:
        raise DimensionMismatchError(f"guess has shape {X0.shape}, anchors have shape {np.shape(anchors.U)}")
    return IterationState(X0)


def _check_dims(x, sys: SystemMatrices, anchors: AnchorBlock):
    """Reject sensor rows or an anchor block that do not fit the system."""
    if np.shape(x) != (sys.M, sys.m):
        raise DimensionMismatchError(f"sensor rows have shape {np.shape(x)}, system expects ({sys.M}, {sys.m})")
    if np.shape(anchors.U) != (sys.m + 1, sys.m):
        raise DimensionMismatchError("anchor block shape does not match the system")


def _relaxed(x: np.ndarray, sys: SystemMatrices, BU: np.ndarray, alpha: float) -> np.ndarray:
    """(1 - alpha) x + alpha (P x + B U), given the constant anchor term B U."""
    total = sys.P @ x + BU
    return total if alpha == 1.0 else (1.0 - alpha) * x + alpha * total


def diloc_step(state: IterationState, sys: SystemMatrices, anchors: AnchorBlock) -> IterationState:
    """One synchronous update: sensor rows become P X(t) + B U."""
    return diloc_rel_step(state, sys, anchors, 1.0)


def diloc_rel_step(
    state: IterationState, sys: SystemMatrices, anchors: AnchorBlock, alpha: float
) -> IterationState:
    """Relaxed update (1 - alpha) X(t) + alpha (P X(t) + B U); alpha in (0, 1].

    alpha = 1 reduces to the plain update and reproduces it bit for bit.
    """
    _check_alpha(alpha)
    _check_dims(state.X, sys, anchors)
    return IterationState(_relaxed(state.X, sys, sys.B @ np.asarray(anchors.U, dtype=float), alpha), state.t + 1)


def _check_alpha(alpha: float):
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlphaError(f"relaxation parameter must lie in (0, 1], got {alpha}")


def run_to_convergence(
    initial: IterationState,
    sys: SystemMatrices,
    anchors: AnchorBlock,
    mode: str = "diloc",
    alpha: float = 1.0,
    step_tol: float = 1e-10,
    max_iters: int = 100_000,
    snapshot_stride: int = 10,
    oracle: np.ndarray | None = None,
    seed: int | None = None,
) -> RunTrace:
    """Iterate until the successive-step max norm drops below step_tol.

    Non-convergence within max_iters is reported through the trace, not
    raised. ``oracle`` (reference sensor positions) only adds an error
    column; the stopping rule never reads it.
    """
    if mode not in MODES:
        raise EngineError(f"mode must be one of {MODES}, got {mode!r}")
    gain = 1.0 if mode == "diloc" else alpha
    _check_alpha(gain)
    # the constant anchor term B U, formed at the first step: after the loop's checks
    BU = functools.cache(lambda: sys.B @ np.asarray(anchors.U, dtype=float))
    return _trace_loop(
        mode, seed, initial, sys, anchors, lambda _, x: (_relaxed(x, sys, BU(), gain), gain),
        max_iters, step_tol, snapshot_stride, oracle,
    )


def _trace_loop(mode, seed, initial, sys, anchors, step, max_iters, step_tol, snapshot_stride, oracle):
    """The driver of every mode: checks the inputs, iterates, builds the RunTrace.

    ``step(t, x)`` returns the sensor rows after iteration t + 1 from those
    after iteration t, as a new array never written into ``x``, and that
    step's gain. The run continues from ``initial.t``, so a run resumed from
    a trace's last state repeats the unbroken one; the loop stops once a step
    norm falls below ``step_tol`` and raises NonFiniteStateError at the first
    non-finite one. EngineError for a negative ``max_iters`` or
    ``snapshot_stride``.
    """
    x = initial.X
    _check_dims(x, sys, anchors)
    if oracle is not None and np.shape(oracle) != (sys.M, sys.m):
        raise DimensionMismatchError(f"oracle has shape {np.shape(oracle)}, system expects ({sys.M}, {sys.m})")
    if not step_tol >= 0:  # a nan tolerance is never met: the run would spin to max_iters
        raise EngineError("step_tol must be nonnegative")
    if initial.t < 0:  # DLRE's gain schedule is defined from t = 0
        raise EngineError(f"initial iteration must be nonnegative, got {initial.t}")
    # a negative bound would run no step, and a negative stride snapshot as its absolute value
    for name, value in (("max_iters", max_iters), ("snapshot_stride", snapshot_stride)):
        if value < 0:
            raise EngineError(f"{name} must be nonnegative, got {value}")
    # array('d') keeps 8 bytes per entry; a list of Python floats about 32
    step_norms, gains = array("d"), array("d")
    oracle_errors = None if oracle is None else array("d")
    snapshots, converged_at, t = [], None, initial.t
    for _ in range(int(max_iters)):
        new, gain = step(t, x)
        t += 1
        norm = float(np.abs(new - x).max()) if len(x) else 0.0
        if not math.isfinite(norm):
            raise NonFiniteStateError(f"step {t} left a non-finite sensor state")
        step_norms.append(norm)
        gains.append(gain)
        if oracle_errors is not None:
            oracle_errors.append(float(np.abs(new - oracle).max()) if len(x) else 0.0)
        x = new
        if snapshot_stride and t % snapshot_stride == 0:
            snapshots.append((t, x))
        if norm < step_tol:
            converged_at = t
            break
    if not snapshots or snapshots[-1][0] != t:
        snapshots.append((t, x))
    return RunTrace(
        mode, seed, sys.M, sys.m, np.frombuffer(step_norms), np.frombuffer(gains),
        None if oracle_errors is None else np.frombuffer(oracle_errors), snapshots, converged_at,
    )
