"""Inputs of the workloads, generated in the benchmark's own code.

The Poisson fields and the chains are fixed: their make-up decides how much
set-up and iteration work a round does, so it does not follow ``--seed``.
The seed drives everything else: initial guesses, noise streams, bias draws
and the seed of the fixture's CLI run.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.spatial import Delaunay

# The presets' anchor triangle (area about 47).
TRIANGLE = np.array([[0.0, 0.0], [10.42, 0.0], [5.21, 9.024]])
# Regular tetrahedron with 6-unit edges (volume about 25.5).
TETRAHEDRON = np.array(
    [
        [0.0, 0.0, 0.0],
        [6.0, 0.0, 0.0],
        [3.0, 3.0 * np.sqrt(3.0), 0.0],
        [3.0, np.sqrt(3.0), 2.0 * np.sqrt(6.0)],
    ]
)

FIELD_SEED = 3
# (name, dimension, density, anchors): M = 278 and M = 37 at FIELD_SEED.
POISSON_FIELDS = (
    ("planar", 2, 6.0, TRIANGLE),
    ("spatial", 3, 1.5, TETRAHEDRON),
)

# Chains: (sensor count, construction seed).
CHAIN_LARGE = (5000, 5000)
CHAIN_BIASED = (2000, 2000)


def derived_seed(seed: int, purpose: int) -> int:
    """A 32-bit seed for one purpose, derived from the workload seed."""
    return int(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, purpose]).generate_state(1)[0])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def chain(n_sensors: int, seed: int):
    """A planar absorbing chain with known coordinates, built without triangulation.

    Sensors are uniform in TRIANGLE. Each sensor links to the three
    Delaunay neighbours whose triangle strictly contains it and has the
    shortest longest edge (the order the set-up protocol tries subsets in);
    its weights are its barycentric coordinates in that triangle, solved from
    coordinates. Every sensor is a strict convex combination of its links,
    so no set of sensors is closed and the chain is absorbing.

    Returns (sensor coordinates (M, 2), neighbour node ids (M, 3), weights (M, 3)),
    with node ids 1-based as in ``SensorField``: anchors 1..3, sensors 4..M+3.
    """
    rng = np.random.default_rng(seed)
    spacing = rng.exponential(size=(n_sensors, 3))
    sensors = (spacing / spacing.sum(axis=1, keepdims=True)) @ TRIANGLE
    nodes = np.vstack([TRIANGLE, sensors])
    indptr, neighbours = Delaunay(nodes).vertex_neighbor_vertices
    ids = np.empty((n_sensors, 3), dtype=int)
    weights = np.empty((n_sensors, 3))
    for s in range(n_sensors):
        node = 3 + s
        trip = np.array(list(combinations(neighbours[indptr[node] : indptr[node + 1]], 3)))
        a, b, c = nodes[trip[:, 0]], nodes[trip[:, 1]], nodes[trip[:, 2]]
        p = nodes[node][None, :]
        area = _cross(b - a, c - a)
        flat = np.abs(area) < 1e-12
        area[flat] = 1.0
        w = np.stack([_cross(b - p, c - p), _cross(c - p, a - p), _cross(a - p, b - p)], axis=1)
        w /= area[:, None]
        inside = ~flat & (w.min(axis=1) > 1e-9)
        longest = np.max(
            [((a - b) ** 2).sum(1), ((a - c) ** 2).sum(1), ((b - c) ** 2).sum(1)], axis=0
        )
        k = int(np.argmin(np.where(inside, longest, np.inf)))
        if not inside[k]:
            raise RuntimeError(f"chain sensor {node + 1} has no enclosing Delaunay triangle")
        ids[s] = trip[k] + 1
        weights[s] = w[k] / w[k].sum()
    return sensors, ids, weights
