"""Output checks, computed by the benchmark and run outside the timed windows.

Each check raises CheckError naming what is wrong. References come from
coordinates and from scipy directly, never from the program's own oracles:
weights are solved from coordinates rather than from Cayley-Menger volumes,
rho(P) comes from ``scipy.sparse.linalg.eigs``, and the biased limit is
checked against a system the benchmark assembles itself. The one
comparison of two program paths is the noise-free DLRE step against the
DILOC-REL step.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class CheckError(Exception):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def tris_arrays(tris: dict, sensor_ids) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour ids and weights of every sensor, one row per sensor in id order."""
    ids = np.array([tris[l].weights.neighbor_ids for l in sensor_ids], dtype=int)
    weights = np.array([tris[l].weights.weights for l in sensor_ids], dtype=float)
    return ids, weights


def check_triangulation(nodes: np.ndarray, ids: np.ndarray, weights: np.ndarray):
    """Positive weights summing to one that reproduce each sensor from its neighbours.

    ``nodes`` holds the true coordinates of every node, anchors first;
    ``ids`` are 1-based node ids. The reference weights are the solution of
    [x_k ; 1] w = [x_l ; 1] over the sensor's neighbours k.
    """
    M, k = ids.shape
    m = nodes.shape[1]
    own = np.arange(M) + m + 2
    require(k == m + 1, f"triangulation sets hold {k} nodes, expected {m + 1}")
    require(bool(np.all(ids != own[:, None])), "a sensor triangulates off itself")
    require(bool(np.all(np.diff(np.sort(ids, axis=1), axis=1) > 0)), "repeated neighbour")
    require(bool(weights.min() > 0.0), f"non-positive weight {weights.min():.3e}")
    require(
        float(np.abs(weights.sum(axis=1) - 1.0).max()) <= 1e-12,
        "weights do not sum to one",
    )
    A = np.concatenate([nodes[ids - 1].transpose(0, 2, 1), np.ones((M, 1, k))], axis=1)
    rhs = np.concatenate([nodes[own - 1], np.ones((M, 1))], axis=1)[:, :, None]
    reference = np.linalg.solve(A, rhs)[:, :, 0]
    worst = float(np.abs(reference - weights).max())
    require(worst <= 1e-7, f"weights differ from the coordinate solve by {worst:.3e}")
    rebuilt = np.einsum("lk,lkj->lj", weights, nodes[ids - 1])
    scale = float(np.ptp(nodes, axis=0).max())
    miss = float(np.abs(rebuilt - nodes[own - 1]).max())
    require(miss <= 1e-9 * scale, f"weights miss the sensor by {miss:.3e}")


def reference_blocks(ids: np.ndarray, weights: np.ndarray, m: int):
    """B (M x (m+1)) and P (M x M), scattered from the triangulation sets."""
    M = ids.shape[0]
    rows = np.repeat(np.arange(M), ids.shape[1])
    cols = ids.ravel()
    vals = weights.ravel()
    anchor = cols <= m + 1
    B = sp.csr_matrix((vals[anchor], (rows[anchor], cols[anchor] - 1)), shape=(M, m + 1))
    P = sp.csr_matrix((vals[~anchor], (rows[~anchor], cols[~anchor] - (m + 2))), shape=(M, M))
    return B, P


def eigs_radius(P: sp.csr_matrix) -> float:
    return float(np.abs(spla.eigs(P, k=1, which="LM", return_eigenvectors=False)).max())


def check_rho(value: float, reference: float):
    require(
        abs(value - reference) <= 1e-8 * max(reference, 1.0),
        f"rho(P) {value!r} differs from eigs {reference!r}",
    )


def check_positions(X: np.ndarray, truth: np.ndarray, tol: float, what: str):
    err = float(np.abs(np.asarray(X) - truth).max())
    require(np.isfinite(err) and err <= tol, f"{what}: error {err:.3e} exceeds {tol:.3e}")


def diloc_tolerance(step_tol: float, rho: float, scale: float) -> float:
    """Error bound at a step-norm stop: the error is about step / (1 - rho)."""
    return 10.0 * step_tol / (1.0 - rho) + 1e-9 * scale


def project(bias, block: sp.csr_matrix) -> sp.csr_matrix:
    """A dense bias restricted to the links of ``block``; zero when absent."""
    if bias is None:
        return sp.csr_matrix(block.shape)
    rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
    vals = np.asarray(bias, dtype=float)[rows, block.indices]
    return sp.csr_matrix((vals, block.indices.copy(), block.indptr.copy()), shape=block.shape)


def check_limit(limit, model, B, P, U: np.ndarray, truth: np.ndarray):
    """(I - P - S_P) d* = (B + S_B) U for biased models, d* = truth otherwise."""
    if model.bias_B is None and model.bias_P is None:
        require(limit.e_l == 0.0, f"unbiased run reports e_l = {limit.e_l!r}")
        check_positions(limit.d_star, truth, 1e-9 * max(1.0, float(np.abs(U).max())), "d*")
        return
    S_B, S_P = project(model.bias_B, B), project(model.bias_P, P)
    A = sp.identity(P.shape[0], format="csr") - P - S_P
    rhs = (B + S_B) @ U
    residual = float(np.abs(A @ limit.d_star - rhs).max())
    require(residual <= 1e-9 * max(1.0, float(np.abs(rhs).max())), f"d* residual {residual:.3e}")
    e_l = float(np.linalg.norm(limit.d_star - truth))
    require(
        abs(e_l - limit.e_l) <= 1e-8 + 1e-6 * e_l,
        f"e_l {limit.e_l!r} differs from the recomputed {e_l!r}",
    )


def check_blocks(sys_m, B: sp.csr_matrix, P: sp.csr_matrix):
    """The program's B and P equal the blocks scattered by the benchmark."""
    for name, got, ref in (("B", sys_m.B, B), ("P", sys_m.P, P)):
        require(got.shape == ref.shape, f"{name} has shape {got.shape}, expected {ref.shape}")
        diff = abs(got - ref)
        require(diff.nnz == 0 or diff.max() <= 1e-15, f"{name} differs from the scattered weights")


def check_relaxed_run(trace, horizon: int, truth: np.ndarray, start: np.ndarray):
    """A fixed-horizon DILOC-REL run takes every step and does not move away from the truth.

    J = (1 - alpha) I + alpha P is nonnegative with row sums at most one, so
    the max-norm error cannot grow.
    """
    require(trace.iterations == horizon, f"ran {trace.iterations} steps, not {horizon}")
    before = float(np.abs(start - truth).max())
    after = float(np.abs(trace.final_state - truth).max())
    require(after <= before * (1.0 + 1e-12), f"max error grew from {before:.3e} to {after:.3e}")


def gains(family: str, param: float, n: int) -> np.ndarray:
    """The first n gains of a harmonic a/(t+1) or power (t+1)^-p schedule."""
    t1 = np.arange(1, n + 1, dtype=float)
    return param / t1 if family == "harmonic" else t1 ** (-param)


def check_dlre_run(trace, horizon: int, schedule: tuple[str, float]):
    """A fixed-horizon DLRE run takes every step with the scheduled gains and stays finite.

    Its state is random, so nothing bounds its error over a short horizon.
    """
    require(trace.iterations == horizon, f"ran {trace.iterations} steps, not {horizon}")
    require(bool(np.isfinite(trace.final_state).all()), "final state is not finite")
    require(
        np.allclose(trace.alphas, gains(*schedule, horizon), rtol=1e-14, atol=0.0),
        "gains differ from the schedule",
    )


def check_dlre_matches_rel(renv, eng, sys_m, anchors, x: np.ndarray, alpha: float = 0.5):
    """With every noise source off and a constant gain, one DLRE step is one DILOC-REL step."""
    quiet = renv.NoiseModel()
    robust = renv.dlre_step(x, sys_m, anchors, quiet, lambda t: alpha, 0)
    relaxed = eng.diloc_rel_step(eng.state_from_guess(anchors, x), sys_m, anchors, alpha).X
    require(np.array_equal(robust, relaxed), "noise-free dlre_step differs from diloc_rel_step")


def read_field_file(path: Path) -> tuple[int, np.ndarray]:
    """Dimension and node coordinates (anchors first) of a field file."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    m = int(lines[0].split("\t")[1])
    coords = np.array([[float(x) for x in ln.split("\t")[2:]] for ln in lines[2:]])
    return m, coords


def tree_size(root: Path) -> tuple[int, int]:
    files = [Path(d) / f for d, _, fs in os.walk(root) for f in fs]
    return len(files), sum(f.stat().st_size for f in files)


def check_artifacts(out: Path, summary: dict, nodes: np.ndarray, m: int):
    """trace.tsv rows, plot/ file count and the field file round trip of one CLI run."""
    rows = (out / "trace.tsv").read_text().count("\n") - 1
    require(rows == summary["iterations"], f"trace.tsv has {rows} rows for {summary['iterations']} iterations")
    plots = len(list((out / "plot").iterdir()))
    M = nodes.shape[0] - (m + 1)
    require(plots == M * m, f"plot/ holds {plots} files, expected {M * m}")
    m_file, coords = read_field_file(out / "field.field")
    require(m_file == m and np.array_equal(coords, nodes), "field.field does not load back to the field")


def check_same_tree(a: Path, b: Path):
    """Byte-identical files under two directories."""
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    require(names_a == names_b, f"{a} and {b} hold different files")
    for name in names_a:
        require((a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs between {a} and {b}")
