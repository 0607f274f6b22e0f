"""Seeded input generators for the benchmark workloads.

The skeleton captures and the closed-form reference model are built here;
the synthetic corpora come from ``gesturemetrics.synth``. Every input depends
on the workload seed alone, so the same seed gives byte-identical files. The
program under test only ever sees these files.
"""

from __future__ import annotations

import json

import numpy as np

LOW_CONFIDENCE_FRAC = 0.05     # keypoints below the 0.1 mapping threshold
MISSING_HAND_FRAC = 0.05       # frames without one hand (or its glove pixels)
NO_PIXELS_FRAC = 0.02          # OpenNI frames whose glove shows no pixels

OPENPOSE_KEYPOINTS = (
    "Nose", "Neck",
    "RShoulder", "RElbow", "RWrist",
    "LShoulder", "LElbow", "LWrist",
    "MidHip", "RHip", "RKnee", "RAnkle",
    "LHip", "LKnee", "LAnkle",
    "REye", "LEye", "REar", "LEar",
    "LBigToe", "LSmallToe", "LHeel",
    "RBigToe", "RSmallToe", "RHeel",
)

OPENNI_KEYPOINTS = (
    "Head", "Neck", "Torso",
    "LShoulder", "LElbow", "LHand",
    "RShoulder", "RElbow", "RHand",
    "LHip", "RHip", "LKnee", "RKnee", "LFoot", "RFoot",
)

# Rest positions (meters; x right, y up, z forward) of the keypoints that do
# not move with the arms or the head.
_STATIC = {
    "Torso": (0.0, 1.15, 0.0), "MidHip": (0.0, 0.95, 0.0),
    "LHip": (0.10, 0.95, 0.0), "RHip": (-0.10, 0.95, 0.0),
    "LKnee": (0.10, 0.50, 0.02), "RKnee": (-0.10, 0.50, 0.02),
    "LAnkle": (0.10, 0.08, 0.0), "RAnkle": (-0.10, 0.08, 0.0),
    "LFoot": (0.10, 0.03, 0.08), "RFoot": (-0.10, 0.03, 0.08),
    "LBigToe": (0.12, 0.0, 0.15), "RBigToe": (-0.12, 0.0, 0.15),
    "LSmallToe": (0.15, 0.0, 0.13), "RSmallToe": (-0.15, 0.0, 0.13),
    "LHeel": (0.10, 0.0, -0.04), "RHeel": (-0.10, 0.0, -0.04),
}
_NECK = np.array([0.0, 1.45, 0.0])
_SHOULDER = {"L": np.array([0.18, 1.42, 0.0]), "R": np.array([-0.18, 1.42, 0.0])}
UPPER_ARM, FOREARM = 0.28, 0.25


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _waves(rng, n_frames, rate_hz, lo, hi, n_harmonics=3):
    """Smooth random signal in [lo, hi]: a sum of slow sinusoids."""
    t = np.arange(n_frames) / rate_hz
    sig = np.zeros(n_frames)
    for _ in range(n_harmonics):
        sig += rng.uniform(0.3, 1.0) * np.sin(
            2.0 * np.pi * rng.uniform(0.1, 1.2) * t + rng.uniform(0.0, 2.0 * np.pi))
    sig /= np.max(np.abs(sig)) or 1.0
    return lo + (sig + 1.0) / 2.0 * (hi - lo)


def _normalize(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _arm(rng, side, n_frames, rate_hz):
    """Elbow and wrist trajectories (T x 3) of one arm from random joint waves."""
    lateral = np.array([1.0, 0.0, 0.0]) if side == "L" else np.array([-1.0, 0.0, 0.0])
    down, fwd = np.array([0.0, -1.0, 0.0]), np.array([0.0, 0.0, 1.0])
    pitch = _waves(rng, n_frames, rate_hz, -0.3, 1.3)[:, None]
    roll = _waves(rng, n_frames, rate_hz, 0.05, 0.9)[:, None]
    bend = _waves(rng, n_frames, rate_hz, 0.2, 1.5)[:, None]
    twist = _waves(rng, n_frames, rate_hz, -0.8, 0.8)[:, None]
    upper = np.cos(roll) * (np.cos(pitch) * down + np.sin(pitch) * fwd) + np.sin(roll) * lateral
    upper = _normalize(upper)
    # forearm bends away from the upper arm inside a plane twisted about it
    e2 = _normalize(fwd - np.sum(fwd * upper, axis=1, keepdims=True) * upper)
    e3 = np.cross(upper, e2)
    bend_dir = np.cos(twist) * e2 + np.sin(twist) * e3
    forearm = np.cos(bend) * upper + np.sin(bend) * bend_dir
    elbow = _SHOULDER[side] + UPPER_ARM * upper
    wrist = elbow + FOREARM * forearm
    return elbow, wrist


def _hands(rng, wrist, n_frames, rate_hz, mirror):
    """OpenPose 21-point hands (T x 21 x 3) around the given wrist track.

    Finger length follows a random opening wave and the hand turns in the
    image plane, so the palm/back classification and both hand distances
    (thumb-pinky for wrist yaw, wrist-middle for opening) vary over time.
    """
    opening = _waves(rng, n_frames, rate_hz, 0.35, 1.0)
    turn = _waves(rng, n_frames, rate_hz, -2.5, 2.5)
    spread = np.array([-1.0, -0.45, 0.0, 0.4, 0.8]) * (-1.0 if mirror else 1.0)
    base = np.array([0.035, 0.09, 0.095, 0.09, 0.075])   # finger lengths at full opening
    hands = np.empty((n_frames, 21, 3))
    hands[:, 0] = wrist
    for f in range(5):
        for j in range(4):
            reach = base[f] * opening * (0.4 + 0.2 * (j + 1))
            angle = turn + spread[f] * (1.0 + 0.1 * j)
            hands[:, 1 + 4 * f + j, 0] = wrist[:, 0] + reach * np.sin(angle)
            hands[:, 1 + 4 * f + j, 1] = wrist[:, 1] - reach * np.cos(angle)
            hands[:, 1 + 4 * f + j, 2] = wrist[:, 2] + 0.01 * j
    return hands


def _confidences(rng, n_frames, n_points):
    conf = rng.uniform(0.5, 1.0, size=(n_frames, n_points))
    low = rng.random((n_frames, n_points)) < LOW_CONFIDENCE_FRAC
    conf[low] = rng.uniform(0.0, 0.09, size=int(low.sum()))
    return conf


def _body_tracks(rng, n_frames, rate_hz, head_name):
    """Every moving and static keypoint as a T x 3 track, with 1 mm jitter."""
    tracks = {"Neck": np.tile(_NECK, (n_frames, 1))}
    for side in ("L", "R"):
        tracks[side + "Shoulder"] = np.tile(_SHOULDER[side], (n_frames, 1))
        tracks[side + "Elbow"], tracks[side + "Wrist"] = _arm(rng, side, n_frames, rate_hz)
    for name, pos in _STATIC.items():
        tracks[name] = np.tile(pos, (n_frames, 1))
    head = np.column_stack([
        _waves(rng, n_frames, rate_hz, -0.05, 0.05),
        _waves(rng, n_frames, rate_hz, 0.11, 0.24),
        _waves(rng, n_frames, rate_hz, -0.04, 0.08)])
    tracks[head_name] = _NECK + head
    for eye, ear, dx in (("LEye", "LEar", 0.035), ("REye", "REar", -0.035)):
        tracks[eye] = tracks[head_name] + (dx, 0.03, -0.01)
        tracks[ear] = tracks[head_name] + (2.0 * dx, 0.01, -0.06)
    for name in tracks:
        tracks[name] = tracks[name] + rng.normal(0.0, 0.001, size=(n_frames, 3))
    return tracks


def _write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _rounded(arr):
    return np.round(arr, 6).tolist()


def write_openpose_capture(path, n_frames, seed, rate_hz=30.0):
    """OpenPose-25 capture with 21x3 hands, per-keypoint confidence, dropouts."""
    rng = _rng(seed)
    tracks = _body_tracks(rng, n_frames, rate_hz, head_name="Nose")
    body = np.stack([tracks[name] for name in OPENPOSE_KEYPOINTS], axis=1)
    conf = _confidences(rng, n_frames, len(OPENPOSE_KEYPOINTS))
    body = _rounded(np.concatenate([body, conf[:, :, None]], axis=2))
    hands = {
        "left_hand": _rounded(_hands(rng, tracks["LWrist"], n_frames, rate_hz, mirror=False)),
        "right_hand": _rounded(_hands(rng, tracks["RWrist"], n_frames, rate_hz, mirror=True)),
    }
    missing = rng.random((n_frames, 2)) < MISSING_HAND_FRAC
    records = []
    for i in range(n_frames):
        rec = {"layout": "openpose25", "timestamp": i / rate_hz,
               "body": dict(zip(OPENPOSE_KEYPOINTS, body[i]))}
        for h, key in enumerate(("left_hand", "right_hand")):
            if not missing[i, h]:
                rec[key] = hands[key][i]
        records.append(rec)
    _write_jsonl(path, records)


def write_openni_capture(path, n_frames, seed, rate_hz=30.0):
    """OpenNI-15 capture with head orientation, glove pixels and dropouts."""
    rng = _rng(seed)
    tracks = _body_tracks(rng, n_frames, rate_hz, head_name="Head")
    tracks["LHand"], tracks["RHand"] = tracks.pop("LWrist"), tracks.pop("RWrist")
    body = np.stack([tracks[name] for name in OPENNI_KEYPOINTS], axis=1)
    conf = _confidences(rng, n_frames, len(OPENNI_KEYPOINTS))
    body = _rounded(np.concatenate([body, conf[:, :, None]], axis=2))
    orientation = np.column_stack([_waves(rng, n_frames, rate_hz, -1.2, 1.2),
                                   _waves(rng, n_frames, rate_hz, -0.3, 0.3)])
    orientation = _rounded(orientation)
    palm_share = np.stack([_waves(rng, n_frames, rate_hz, 0.0, 1.0) for _ in range(2)], axis=1)
    total = rng.integers(200, 1000, size=(n_frames, 2))
    palm = np.round(palm_share * total).astype(int)
    pixels = np.stack([palm, total - palm], axis=2)
    pixels[rng.random((n_frames, 2)) < NO_PIXELS_FRAC] = 0
    pixels = pixels.tolist()
    missing = rng.random((n_frames, 2)) < MISSING_HAND_FRAC
    records = []
    for i in range(n_frames):
        rec = {"layout": "openni15", "timestamp": i / rate_hz,
               "body": dict(zip(OPENNI_KEYPOINTS, body[i])),
               "head_orientation": orientation[i]}
        for h, key in enumerate(("left_pixels", "right_pixels")):
            if not missing[i, h]:
                rec[key] = pixels[i][h]
        records.append(rec)
    _write_jsonl(path, records)


def reference_model(gm, ds, k):
    """A k-component tied-covariance mixture built in closed form, without EM.

    Rows are sorted along the first principal axis and cut into k equal
    groups; the model takes the group means, the group shares as weights and
    the pooled within-group covariance plus the same relative ridge that
    ``gmm`` applies to every fitted covariance, so it is positive definite.
    """
    x = gm.model.as_matrix(ds)
    n = x.shape[0]
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    groups = np.array_split(np.argsort(centered @ vt[0], kind="stable"), k)
    means = np.array([x[g].mean(axis=0) for g in groups])
    resid = np.concatenate([x[g] - m for g, m in zip(groups, means)])
    cov = resid.T @ resid / n
    cov += gm.gmm.COV_REG * float(np.mean(np.diag(cov))) * np.eye(cov.shape[0])
    weights = np.array([g.size for g in groups], dtype=float) / n
    return gm.gmm.GmmModel(weights=weights, means=means, covariance=(cov + cov.T) / 2.0,
                           mu=ds.mu, dt=ds.dt)
