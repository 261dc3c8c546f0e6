"""Cost-effective multi-LiDAR placement.

Voxelize a region of interest, segment it into the non-detectable subspaces
cut out by spinning-beam cones, and search sensor poses that minimize the
worst subspace's volume-to-surface-area ratio.  A Monte Carlo detection-rate
estimator validates the objective as a detection proxy.
"""

from .bees import AbcParams, FoodSource, SolveResult, fitness, optimize, propose, roulette_many
from .cost import (
    PlacementReport,
    SubspaceRecord,
    component_metrics,
    decision_bounds,
    evaluate_placement,
    make_objective,
    max_vsr,
    poses_from_vector,
)
from .geometry import (
    Box,
    LidarModel,
    PoseBounds,
    PoseConfig,
    RoiSpec,
    VoxelGrid,
    as_vec3,
    build_voxel_grid,
    lidar_to_world,
    rotation_matrix,
    world_to_lidar,
)
from .odr import ObjectSpec, OdrReport, OdrSettings, estimate_odr
from .scenario import (
    Scenario,
    ScenarioError,
    canonical_dict,
    load_scenario,
    parse_scenario,
    scenario_digest,
    with_seed,
)
from .segmentation import beam_digits, component_ids, first_level_labels, segment

__version__ = "0.1.0"

__all__ = [
    "AbcParams",
    "Box",
    "FoodSource",
    "LidarModel",
    "ObjectSpec",
    "OdrReport",
    "OdrSettings",
    "PlacementReport",
    "PoseBounds",
    "PoseConfig",
    "RoiSpec",
    "Scenario",
    "ScenarioError",
    "SolveResult",
    "SubspaceRecord",
    "VoxelGrid",
    "as_vec3",
    "beam_digits",
    "build_voxel_grid",
    "canonical_dict",
    "component_ids",
    "component_metrics",
    "decision_bounds",
    "estimate_odr",
    "evaluate_placement",
    "first_level_labels",
    "fitness",
    "lidar_to_world",
    "load_scenario",
    "make_objective",
    "max_vsr",
    "optimize",
    "parse_scenario",
    "poses_from_vector",
    "propose",
    "rotation_matrix",
    "roulette_many",
    "scenario_digest",
    "segment",
    "with_seed",
    "world_to_lidar",
]
