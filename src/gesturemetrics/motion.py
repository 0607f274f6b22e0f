"""Motion smoothness statistics over forward-kinematics trajectories.

Kinematic chain convention (authoritative for this repo): torso frame with
x forward, y to the robot's left, z up; shoulders sit at
(0, +/-shoulder_offset, 0). With all joints at zero the arm points along
+x. Per arm the chain is

    R_shoulder = Ry(-pitch) Rz(roll_signed)
    elbow      = shoulder + upper_arm * R_shoulder ex
    R_elbow    = R_shoulder Rx(elbow_yaw) Rz(elbow_roll_signed)
    hand       = elbow + forearm * R_elbow ex

Head smoothness is computed on the pitch/yaw angle series directly; the
head does not translate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InsufficientDataError, StructuralError
from .model import JOINT_NAMES, N_JOINTS

SITES = ("Lhand", "Rhand", "Lelbow", "Relbow")
HEAD_ANGLES = ("yaw", "pitch")

_J = {name: i for i, name in enumerate(JOINT_NAMES)}


def _rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def forward_kinematics(values, profile):
    """Elbow and hand positions of both arms for one pose of 14 joint values.

    Returns a dict over ``SITES`` of length-3 arrays in the torso frame.
    """
    ex = np.array([1.0, 0.0, 0.0])
    out = {}
    for prefix, side_sign, site_e, site_h in (
        ("L", 1.0, "Lelbow", "Lhand"),
        ("R", -1.0, "Relbow", "Rhand"),
    ):
        shoulder = np.array([0.0, side_sign * profile.shoulder_offset, 0.0])
        pitch = values[_J[prefix + "ShoulderPitch"]]
        roll = values[_J[prefix + "ShoulderRoll"]]
        eyaw = values[_J[prefix + "ElbowYaw"]]
        eroll = values[_J[prefix + "ElbowRoll"]]
        r_sh = _ry(-pitch) @ _rz(roll)
        elbow = shoulder + profile.upper_arm_length * (r_sh @ ex)
        r_el = r_sh @ _rx(eyaw) @ _rz(eroll)
        hand = elbow + profile.forearm_length * (r_el @ ex)
        out[site_e] = elbow
        out[site_h] = hand
    return out


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


@dataclass
class MotionReport:
    """Mean smoothness statistics per site over a dataset's units."""

    jerk_by_site: dict
    path_length_by_site: dict
    head_jerk: dict
    jerk_available: bool

    def to_dict(self):
        return asdict(self)


def motion_report(ds, profile):
    """Per-site mean jerk and path length, plus head angular jerks.

    Statistics are computed per unit of movement and then averaged across
    units (pairwise summation via numpy keeps the mean deterministic).
    When mu < 4 the jerk entries are flagged unavailable; path lengths are
    still reported.
    """
    poses = ds.matrix.reshape(-1, N_JOINTS)
    sites = np.empty((len(poses), len(SITES), 3))
    for i, pose in enumerate(poses):
        pos = forward_kinematics(pose, profile)
        sites[i] = [pos[site] for site in SITES]
    tracks = sites.reshape(len(ds), ds.mu, len(SITES), 3)
    heads = poses.reshape(len(ds), ds.mu, N_JOINTS)[:, :, [_J["HeadYaw"], _J["HeadPitch"]]]
    jerk_available = ds.mu >= 4
    return MotionReport(
        jerk_by_site={
            site: float(np.mean(jerk(tracks[:, :, s], ds.dt))) if jerk_available else None
            for s, site in enumerate(SITES)
        },
        path_length_by_site={
            site: float(np.mean(path_length(tracks[:, :, s]))) if ds.mu >= 2 else 0.0
            for s, site in enumerate(SITES)
        },
        head_jerk={
            angle: float(np.mean(angular_jerk(heads[:, :, a], ds.dt))) if jerk_available else None
            for a, angle in enumerate(HEAD_ANGLES)
        },
        jerk_available=jerk_available,
    )
