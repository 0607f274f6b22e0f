"""Synthetic scripted-animation gesture corpus.

Parametric sinusoidal beat gestures stand in for an animation-library
recording: every joint oscillates around a rest value with randomized
amplitude, frequency and phase, clamped into the robot's limits. This
gives the toolkit a self-contained reference corpus for training the
feature-extraction mixture and for end-to-end experiments.
"""

from __future__ import annotations

import math

import numpy as np

from . import pipeline
from .errors import StructuralError
from .model import N_JOINTS, RobotProfile, philox, validate_pose
from .pipeline import PoseStream, window

N_HARMONICS = 3    # randomized sinusoids mixed into each joint


def beat_gesture_stream(n_poses, rate_hz=4.0, seed=0, profile=None,
                        amplitude=0.3):
    """Generate a pose stream of sinusoidal beat gestures.

    ``amplitude`` is the fraction of each joint's half-range used by the
    oscillation; each joint mixes ``N_HARMONICS`` randomized sinusoids.
    Deterministic given the seed. A rate or amplitude that would overflow
    the timestamps or the joint values is rejected, and so is an ``n_poses``
    above ``pipeline.MAX_POSES``, before any allocation.
    """
    if n_poses < 1:
        raise StructuralError("need at least one pose")
    if n_poses > pipeline.MAX_POSES:
        raise StructuralError(f"n_poses {n_poses} is more than {pipeline.MAX_POSES} poses")
    # the sine arguments 2 pi f t + phase (f <= 1.5 Hz) stay below 4 pi t_end
    if not (math.isfinite(rate_hz) and rate_hz > 0
            and math.isfinite(4.0 * math.pi * max(n_poses - 1, 1) / rate_hz)):
        raise StructuralError(f"rate must be positive and keep timestamps finite, got {rate_hz}")
    if not np.isfinite(amplitude):
        raise StructuralError(f"amplitude must be finite, got {amplitude}")
    profile = profile or RobotProfile.default()
    rng = philox(seed)
    limits = profile.limits_array()
    center = limits.mean(axis=1)
    half_range = (limits[:, 1] - limits[:, 0]) / 2.0
    peak = N_HARMONICS * abs(float(amplitude)) * float(half_range.max())
    if not math.isfinite(peak + float(np.abs(center).max())):
        raise StructuralError(f"amplitude {amplitude} overflows the joint values")

    t = np.arange(n_poses) / rate_hz
    values = np.tile(center, (n_poses, 1))
    for j in range(N_JOINTS):
        for _ in range(N_HARMONICS):
            freq = rng.uniform(0.2, 1.5)       # beat-gesture band, Hz
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = amplitude * half_range[j] * rng.uniform(0.3, 1.0)
            values[:, j] += amp * np.sin(2.0 * np.pi * freq * t + phase)

    values, _ = validate_pose(values, profile)
    return PoseStream(values=values, timestamps=t, native_rate_hz=rate_hz)


def beat_gesture_corpus(n_poses, mu, rate_hz=4.0, seed=0, profile=None,
                        amplitude=0.3):
    """Windowed synthetic corpus: ``floor(n_poses / mu)`` units of movement."""
    stream = beat_gesture_stream(n_poses, rate_hz=rate_hz, seed=seed,
                                 profile=profile, amplitude=amplitude)
    return window(stream, mu, source_tag="synthetic-beats")
