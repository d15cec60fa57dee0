"""EDT reference for the POA.

``push.compute_poa`` used to dilate the occupancy through scipy's exact
Euclidean distance transform on the occupied box plus rp = ceil(r/rho),
clipped to the window. This module keeps that implementation; the numpy
kernel is checked against it bit for bit. scipy is a test dependency only.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from cageintime.core import PSSGrid


def compute_poa(pss: PSSGrid, r: float) -> PSSGrid:
    """The occupancy dilated by a disk of radius ceil(r/rho) pixels."""
    if pss.is_empty:
        return pss
    rp = int(math.ceil(r / pss.resolution))
    h, w = pss.cells.shape
    rows = np.flatnonzero(pss.cells.any(axis=1))
    cols = np.flatnonzero(pss.cells.any(axis=0))
    i0, i1 = max(rows[0] - rp, 0), min(rows[-1] + rp + 1, h)
    j0, j1 = max(cols[0] - rp, 0), min(cols[-1] + rp + 1, w)
    dil = np.zeros((h, w), dtype=bool)
    dil[i0:i1, j0:j1] = ndimage.distance_transform_edt(~pss.cells[i0:i1, j0:j1]) <= rp
    return PSSGrid(cells=dil, resolution=pss.resolution, frame_center=pss.frame_center)
