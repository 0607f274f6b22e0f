"""Gesture retargeting and quantitative evaluation of gesture generators.

Library layers:

- ``model``: robot profile, 14-joint poses, array-backed gesture datasets
- ``mapping``: OpenNI/OpenPose skeleton-to-joint retargeting
- ``pipeline``: array-backed pose streams, resampling, windowing, CSV IO
- ``pcoa``: correlation-distance PCoA fidelity analysis
- ``procrustes``: originality statistic
- ``motion``: forward kinematics, jerk and path-length statistics
- ``gmm``: tied-covariance mixture (feature extractor and generator)
- ``fgd``: Fréchet gesture distance
- ``report`` / ``cli``: joint evaluation and command-line entry points
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    JOINT_NAMES,
    N_JOINTS,
    GestureDataset,
    Pose,
    RobotProfile,
    as_matrix,
    validate_pose,
)
from .pipeline import PoseStream  # noqa: F401
