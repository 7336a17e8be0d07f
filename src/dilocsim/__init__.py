"""Distributed iterative sensor localization from inter-node distances.

Sensors inside the convex hull of m+1 anchors express themselves as convex
combinations of m+1 neighbors (barycentric coordinates computed from
distances alone) and iterate those combinations to their exact positions.
The package covers the deterministic iteration, its relaxed variant, a
stochastic-approximation variant robust to link failures and noise, exact
linear-algebra oracles for all of them, and a reproducible experiment CLI.
"""

from .geometry import (
    BarycentricWeights,
    DistanceMatrix,
    HullVerdict,
    Simplex,
    barycentric_coordinates,
    cayley_menger_determinant,
    convex_hull_inclusion,
    generalized_volume,
    validate_distance_matrix,
)
from .deployment import (
    SensorField,
    TriangulationSet,
    can_triangulate,
    demo_network,
    generate_poisson_field,
    load_field,
    min_density_for_probability,
    min_radius_for_probability,
    save_field,
    sector_sufficiency_check,
    triangulate_all,
    triangulate_sensor,
    triangulation_probability_bound,
)
from .system import (
    AnchorBlock,
    SystemMatrices,
    absorbing_check,
    build_system_matrices,
    exact_locations_oracle,
    spectral_radius,
)
from .engine import (
    IterationState,
    RunTrace,
    diloc_rel_step,
    diloc_step,
    initial_state,
    run_to_convergence,
    state_from_guess,
)
from .random_env import (
    DlreLimit,
    EnvironmentSample,
    NoiseModel,
    WeightSchedule,
    dlre_limit,
    dlre_step,
    make_weight_schedule,
    random_link_bias,
    run_dlre,
    sample_environment,
)

__version__ = "0.1.0"
