"""Retargeting walkthrough: captured skeleton frames to a robot pose stream.

Builds a short synthetic OpenNI-15 capture of a waving person, maps it onto
the 14 upper-body joints, resamples to 4 Hz and cuts units of movement.
"""

import json
import math
import tempfile
from pathlib import Path

from gesturemetrics.mapping import OPENNI_LAYOUT, StreamMapper, load_skeleton_frames, map_capture
from gesturemetrics.model import JOINT_NAMES, RobotProfile
from gesturemetrics.pipeline import resample, window

BASE_BODY = {
    "Head": (0.0, 0.45, 2.0), "Neck": (0.0, 0.30, 2.0), "Torso": (0.0, 0.0, 2.0),
    "LShoulder": (0.2, 0.30, 2.0), "LElbow": (0.2, 0.05, 2.0), "LHand": (0.2, -0.2, 2.0),
    "RShoulder": (-0.2, 0.30, 2.0), "RElbow": (-0.2, 0.05, 2.0), "RHand": (-0.2, -0.2, 2.0),
    "LHip": (0.1, -0.30, 2.0), "RHip": (-0.1, -0.30, 2.0),
    "LKnee": (0.1, -0.70, 2.0), "RKnee": (-0.1, -0.70, 2.0),
    "LFoot": (0.1, -1.10, 2.0), "RFoot": (-0.1, -1.10, 2.0),
}


def wave_frames(path, n=40, rate_hz=10.0):
    """Right arm raised, forearm swinging left-right; head slowly turning."""
    with open(path, "w") as fh:
        for i in range(n):
            t = i / rate_hz
            body = {k: list(v) for k, v in BASE_BODY.items()}
            body["RElbow"] = [-0.45, 0.30, 2.0]
            swing = 0.25 * math.sin(2.0 * math.pi * 1.2 * t)
            body["RHand"] = [-0.45 + swing, 0.55, 2.0]
            rec = {
                "layout": "openni15",
                "timestamp": t,
                "body": body,
                "head_orientation": [0.3 * math.sin(0.8 * t), 0.0],
                "left_pixels": [250, 120],
                "right_pixels": [90, 310],
            }
            fh.write(json.dumps(rec) + "\n")


def main():
    with tempfile.TemporaryDirectory(prefix="retarget-demo-") as workdir:
        capture = Path(workdir) / "capture.jsonl"
        wave_frames(capture)
        print(f"capture: {capture} (40 frames at 10 Hz)")
        frames = load_skeleton_frames(capture, OPENNI_LAYOUT)

    profile = RobotProfile.default()
    stream = map_capture(frames, profile, seed=0)
    print(f"mapped: {len(stream)} poses at {stream.native_rate_hz} Hz (the mean frame rate)")

    print("\nfirst mapped pose (rad / open fraction):")
    for name, value in zip(JOINT_NAMES, stream.values[0]):
        print(f"  {name:16s} {value:+.3f}")
    print(f"  clamped joints in frame 0: {StreamMapper(profile).map_frame(frames[0]).n_clamped}")

    stream4 = resample(stream, 4.0)
    ds = window(stream4, 4, source_tag="wave-demo")
    print(f"\nresampled to 4 Hz: {len(stream4)} poses")
    print(f"units of movement (mu=4): {len(ds)}, each a {14 * 4}-vector")

    swing = stream4.values[:, JOINT_NAMES.index("RElbowRoll")]
    print(f"RElbowRoll range over the wave: [{min(swing):+.3f}, {max(swing):+.3f}] rad")


if __name__ == "__main__":
    main()
