"""Terrain-aware locomotion planning: foothold evaluation criteria over
heightmaps, foothold adaptation, pose adaptation via RBF regression and
box-constrained pose optimization, and a quasi-kinematic gait simulator."""

__version__ = "0.1.0"
