"""Terrain-aware locomotion planning: foothold evaluation criteria over
heightmaps, foothold adaptation, pose adaptation via RBF regression and
box-constrained pose optimization, and a quasi-kinematic gait simulator."""

from .terrain import Heightmap, TerrainMap, extract_heightmap, sample_height
from .robot import (
    GaitParams,
    LEG_NAMES,
    RobotModel,
    hip_height_from,
    nominal_foothold,
    robot_preset,
    swing_points,
)
from .fec import (
    FecEvaluator,
    SafetyGrid,
    erode_safe_set,
    eval_fec,
    eval_tr,
)
from .vfa import FootholdDecision, foothold_evaluation
from .vpa import (
    PoseOptProblem,
    PoseOptResult,
    SafeFootholdFunction,
    fit_rbf,
    objective_batch,
    optimize_pose_receding,
    pose_evaluation,
)
from .tbr import tbr_pose
from .sim import ConfigError, RunMetrics, Scenario, compare_scenarios, run_scenario

__version__ = "0.1.0"
