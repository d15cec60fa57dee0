"""Frame rendering to binary PGM (P5): diffable grayscale snapshots of the
state set, cage, and pusher, or of the ball belief."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ball import ProbGrid
from .core import CageCircle, PSSGrid
from .push import PusherPose, compute_poa, segment_distance

GRAY_PUSHER = 32
GRAY_CAGE = 96
GRAY_POA = 160
GRAY_PSS = 255


@dataclass(frozen=True)
class FrameImage:
    pixels: np.ndarray  # (H, W) uint8

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.uint8)
        if p.ndim != 2:
            raise ValueError("frame must be 2D")
        object.__setattr__(self, "pixels", p)
        p.setflags(write=False)

    def pgm_bytes(self) -> bytes:
        h, w = self.pixels.shape
        return f"P5\n{w} {h}\n255\n".encode("ascii") + self.pixels.tobytes()

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.pgm_bytes())


def render_push_frame(
    pss: PSSGrid,
    cage: CageCircle,
    pose: Optional[PusherPose],
    object_radius: float,
) -> FrameImage:
    """Draw the cage ring, the area possibly covered by the object, the
    state set itself, and (if given) the pusher segment."""
    img = np.zeros(pss.cells.shape, dtype=np.uint8)
    x, y = pss.world(*np.indices(img.shape))
    d = np.hypot(x - cage.center.x, y - cage.center.y)
    img[np.abs(d - cage.radius) <= pss.resolution] = GRAY_CAGE
    if pose is not None:
        pts = np.column_stack([x.ravel(), y.ravel()])
        near = segment_distance(pts, pose).reshape(img.shape) <= pss.resolution
        img[near] = GRAY_PUSHER
    poa = compute_poa(pss, object_radius)
    img[poa.cells] = GRAY_POA
    img[pss.cells] = GRAY_PSS
    return FrameImage(img)


def render_prob_frame(grid: ProbGrid) -> FrameImage:
    """Belief mass over the grid's first two axes, mapped linearly to gray by
    mass / peak mass: the (x, v) plane for n=1 and the position marginal for
    n=2."""
    plane = np.zeros((grid.N, grid.N))
    np.add.at(plane, (grid.cells[:, 0], grid.cells[:, 1]), grid.p)
    return FrameImage(np.round(255.0 * plane / plane.max()).astype(np.uint8))
