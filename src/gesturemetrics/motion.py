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

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, StructuralError
from .model import JOINT_NAMES, N_JOINTS

SITES = ("Lhand", "Rhand", "Lelbow", "Relbow")
HEAD_ANGLES = ("yaw", "pitch")

_J = {name: i for i, name in enumerate(JOINT_NAMES)}


@dataclass
class CartesianTrack:
    """T x 3 positions of one body site at a fixed sampling interval."""

    points: np.ndarray
    dt: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise StructuralError("track must be T x 3")
        if not self.dt > 0:
            raise StructuralError("dt must be positive")


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


def jerk(track):
    """Mean norm of the discrete jerk (third forward difference / dt^3)."""
    pts = track.points
    if pts.shape[0] < 4:
        raise InsufficientDataError("jerk needs at least 4 samples")
    third = np.diff(pts, n=3, axis=0) / track.dt ** 3
    return float(np.mean(np.linalg.norm(third, axis=1)))


def path_length(track):
    """Total traversed distance: sum of consecutive displacement norms."""
    pts = track.points
    if pts.shape[0] < 2:
        raise InsufficientDataError("path length needs at least 2 samples")
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def angular_jerk(series, dt):
    """Scalar-series analogue of :func:`jerk` (absolute third difference)."""
    series = np.asarray(series, dtype=float)
    if series.size < 4:
        raise InsufficientDataError("angular jerk needs at least 4 samples")
    if not dt > 0:
        raise StructuralError("dt must be positive")
    third = np.diff(series, n=3) / dt ** 3
    return float(np.mean(np.abs(third)))


@dataclass
class MotionReport:
    """Mean smoothness statistics per site over a dataset's units."""

    jerk_by_site: dict
    path_length_by_site: dict
    head_jerk: dict
    jerk_available: bool

    def to_dict(self):
        return {
            "jerk_by_site": self.jerk_by_site,
            "path_length_by_site": self.path_length_by_site,
            "head_jerk": self.head_jerk,
            "jerk_available": self.jerk_available,
        }


def unit_tracks(unit, dt, profile):
    """Cartesian tracks of the four arm sites across one unit of movement.

    ``unit`` holds the unit's 14*mu joint values, one dataset row.
    """
    positions = [forward_kinematics(pose, profile) for pose in unit.reshape(-1, N_JOINTS)]
    return {
        site: CartesianTrack(points=np.array([pos[site] for pos in positions]), dt=dt)
        for site in SITES
    }


def motion_report(ds, profile):
    """Per-site mean jerk and path length, plus head angular jerks.

    Statistics are computed per unit of movement and then averaged across
    units (pairwise summation via numpy keeps the mean deterministic).
    When mu < 4 the jerk entries are flagged unavailable; path lengths are
    still reported.
    """
    jerk_available = ds.mu >= 4
    jerk_acc = {site: [] for site in SITES}
    path_acc = {site: [] for site in SITES}
    head_acc = {angle: [] for angle in HEAD_ANGLES}
    for unit in ds.matrix:
        tracks = unit_tracks(unit, ds.dt, profile)
        poses = unit.reshape(ds.mu, N_JOINTS)
        for site in SITES:
            path_acc[site].append(path_length(tracks[site]) if ds.mu >= 2 else 0.0)
            if jerk_available:
                jerk_acc[site].append(jerk(tracks[site]))
        if jerk_available:
            head_acc["yaw"].append(angular_jerk(poses[:, _J["HeadYaw"]], ds.dt))
            head_acc["pitch"].append(angular_jerk(poses[:, _J["HeadPitch"]], ds.dt))
    return MotionReport(
        jerk_by_site={
            site: float(np.mean(jerk_acc[site])) if jerk_available else None
            for site in SITES
        },
        path_length_by_site={site: float(np.mean(path_acc[site])) for site in SITES},
        head_jerk={
            angle: float(np.mean(head_acc[angle])) if jerk_available else None
            for angle in HEAD_ANGLES
        },
        jerk_available=jerk_available,
    )
