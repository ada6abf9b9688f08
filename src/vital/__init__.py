"""Terrain-aware locomotion planning: foothold evaluation criteria over
heightmaps, foothold adaptation, pose adaptation via RBF regression and
box-constrained pose optimization, and a quasi-kinematic gait simulator."""

from .terrain import Heightmap, TerrainMap, extract_heightmap, sample_height
from .robot import (
    BodyTwist,
    GaitParams,
    LEG_NAMES,
    Pose,
    RobotModel,
    SwingTrajectory,
    hip_height,
    nominal_foothold,
    robot_preset,
    swing_trajectory,
    workspace_contains,
)
from .fec import (
    FecConfig,
    FecEvaluator,
    FecInput,
    SafetyGrid,
    count_safe,
    erode_safe_set,
    eval_fec,
    eval_tr,
)
from .vfa import FootholdDecision, VfaInput, foothold_evaluation
from .vpa import (
    HipHeightSet,
    PoseOptProblem,
    PoseOptResult,
    SafeFootholdFunction,
    SafeFootholdSamples,
    fit_rbf,
    objective_batch,
    optimize_pose_receding,
    optimize_pose_single,
    pose_evaluation,
)
from .tbr import TbrReference, tbr_pose
from .sim import ConfigError, RunMetrics, Scenario, compare_scenarios, run_scenario

__version__ = "0.1.0"
