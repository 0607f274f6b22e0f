"""Motion smoothness statistics over forward-kinematics trajectories.

Kinematic chain convention (authoritative for this repo): torso frame with
x forward, y to the robot's left, z up; shoulders sit at
(0, +/-shoulder_offset, 0). With all joints at zero the arm points along
+x. Per arm the chain is

    R_shoulder = Ry(-pitch) Rz(roll_signed)
    elbow      = shoulder + upper_arm * R_shoulder ex
    R_elbow    = R_shoulder Rx(elbow_yaw) Rz(elbow_roll_signed)
    hand       = elbow + forearm * R_elbow ex

``forward_kinematics`` evaluates it in closed form, in plain float arithmetic
(no 3x3 products, so no BLAS kernel). With p = pitch and r, y, e the signed
shoulder roll, elbow yaw and signed elbow roll,

    R_shoulder ex = (cos p cos r, sin r, -sin(-p) cos r)
    R_elbow ex    = R_shoulder (cos e, cos y sin e, sin y sin e)

Head smoothness is computed on the pitch/yaw angle series directly; the
head does not translate.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .errors import InsufficientDataError, StructuralError
from .model import JOINT_INDEX, N_JOINTS

SITES = ("Lhand", "Rhand", "Lelbow", "Relbow")
HEAD_ANGLES = ("yaw", "pitch")

_ARM = ("ShoulderPitch", "ShoulderRoll", "ElbowYaw", "ElbowRoll")
_ARM_JOINTS = [[JOINT_INDEX[side + joint] for joint in _ARM] for side in "LR"]
_HEAD_JOINTS = [JOINT_INDEX["HeadYaw"], JOINT_INDEX["HeadPitch"]]     # HEAD_ANGLES order


def forward_kinematics(values, profile):
    """Elbow and hand positions of both arms for one pose of 14 joint values.

    Returns a ``(4, 3)`` array of torso-frame positions in ``SITES`` order.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (N_JOINTS,):
        raise StructuralError(f"a pose is {N_JOINTS} joint values, got shape {values.shape}")
    v = values.tolist()
    upper, fore = profile.upper_arm_length, profile.forearm_length
    hands, elbows = [], []
    for sign, (pitch, roll, eyaw, eroll) in zip((1.0, -1.0), _ARM_JOINTS):
        cp, sp = math.cos(-v[pitch]), math.sin(-v[pitch])
        cr, sr = math.cos(v[roll]), math.sin(v[roll])
        cy, sy = math.cos(v[eyaw]), math.sin(v[eyaw])
        ce, se = math.cos(v[eroll]), math.sin(v[eroll])
        ux, uy, uz = cp * cr, sr, -sp * cr          # R_shoulder ex
        b, c = cy * se, sy * se                     # R_elbow ex = R_shoulder (ce, b, c)
        ex, ey, ez = upper * ux, sign * profile.shoulder_offset + upper * uy, upper * uz
        elbows += (ex, ey, ez)
        hands += (ex + fore * (ux * ce - cp * sr * b + sp * c), ey + fore * (uy * ce + cr * b),
                  ez + fore * (uz * ce + sp * sr * b + cp * c))
    return np.array(hands + elbows).reshape(len(SITES), 3)


def _tracks(points):
    points = np.asarray(points, dtype=float)
    if points.ndim < 2 or points.shape[-1] != 3:
        raise StructuralError("tracks must be (..., T, 3)")
    return points


def _third_difference(values, dt, axis, what):
    """Third forward difference along the time ``axis``, over dt^3."""
    if values.ndim == 0 or values.shape[axis] < 4:
        raise InsufficientDataError(f"{what} needs at least 4 samples")
    if not dt > 0:
        raise StructuralError("dt must be positive")
    return np.diff(values, n=3, axis=axis) / dt ** 3


def _per_track(values):
    """A single track's statistic as a float, a batch's as an array."""
    return float(values) if values.ndim == 0 else values


def jerk(points, dt):
    """Mean norm of the discrete jerk (third forward difference / dt^3).

    ``points`` holds (..., T, 3) positions sampled ``dt`` apart; the result
    has one value per track.
    """
    third = _third_difference(_tracks(points), dt, -2, "jerk")
    return _per_track(np.mean(np.linalg.norm(third, axis=-1), axis=-1))


def path_length(points):
    """Total traversed distance of (..., T, 3) tracks: sum of step norms."""
    points = _tracks(points)
    if points.shape[-2] < 2:
        raise InsufficientDataError("path length needs at least 2 samples")
    return _per_track(np.sum(np.linalg.norm(np.diff(points, axis=-2), axis=-1), axis=-1))


def angular_jerk(series, dt):
    """Analogue of :func:`jerk` for (..., T) angle series (absolute third difference)."""
    third = _third_difference(np.asarray(series, dtype=float), dt, -1, "angular jerk")
    return _per_track(np.mean(np.abs(third), axis=-1))


def motion_report(ds, profile):
    """Per-site mean jerk and path length, plus head angular jerks.

    Returns the document ``{"jerk_by_site", "path_length_by_site",
    "head_jerk", "jerk_available"}``, the first three keyed by site or head
    angle. Statistics are computed per unit of movement and then averaged
    across units (pairwise summation via numpy keeps the mean deterministic).
    When mu < 4 the jerk entries are flagged unavailable; path lengths are
    still reported. A statistic that overflows is infinite or NaN, without a
    ``RuntimeWarning``.
    """
    poses = ds.matrix.reshape(-1, N_JOINTS)
    sites = np.empty((len(poses), len(SITES), 3))
    for i, pose in enumerate(poses):
        sites[i] = forward_kinematics(pose, profile)
    # site- and angle-major copies: np.diff keeps a transposed view's memory order, and numpy
    # does not sum pairwise along an axis that is not innermost, so a view changes the last bits
    tracks = np.ascontiguousarray(sites.transpose(1, 0, 2)).reshape(-1, len(ds), ds.mu, 3)
    heads = np.ascontiguousarray(poses[:, _HEAD_JOINTS].T).reshape(-1, len(ds), ds.mu)
    jerk_available = ds.mu >= 4
    # an overflow gives a non-finite statistic, which the report writers refuse
    with np.errstate(over="ignore", invalid="ignore"):
        jerks = np.mean(jerk(tracks, ds.dt), axis=-1).tolist() if jerk_available else repeat(None)
        paths = np.mean(path_length(tracks), axis=-1).tolist() if ds.mu >= 2 else repeat(0.0)
        head = (np.mean(angular_jerk(heads, ds.dt), axis=-1).tolist() if jerk_available
                else repeat(None))
    return {"jerk_by_site": dict(zip(SITES, jerks)), "path_length_by_site": dict(zip(SITES, paths)),
            "head_jerk": dict(zip(HEAD_ANGLES, head)), "jerk_available": jerk_available}
