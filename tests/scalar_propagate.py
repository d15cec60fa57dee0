"""Reference for the push propagation step.

``push.propagate_pss`` used to scan the grid with 2-D ``np.nonzero`` and to
test every candidate offset of every contacted cell against its
semi-ellipse, including the half that lies behind the pusher. This module
keeps that implementation; the current ``push.propagate_pss``, which tests
each contacted cell only on the forward offsets its semi-ellipse can hold,
is checked against it bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from cageintime.core import EmptyResult, PSSGrid, Vec2
from cageintime.push import PushProblem, _candidate_offsets, pusher_pose, segment_distance


def propagate_pss(
    pss: PSSGrid,
    action: Optional[float],
    cage_center_next: Vec2,
    problem: PushProblem,
) -> PSSGrid:
    """One planning step, one (contacted cell, offset) pair at a time."""
    if pss.is_empty:
        raise EmptyResult("cannot propagate an empty PSS")
    rho = pss.resolution
    h, w = pss.cells.shape
    shift_x = (cage_center_next.x - pss.frame_center.x) / rho
    shift_y = (cage_center_next.y - pss.frame_center.y) / rho
    sj, si = int(round(shift_x)), int(round(shift_y))
    new_center = Vec2(pss.frame_center.x + sj * rho, pss.frame_center.y + si * rho)

    ii, jj = np.nonzero(pss.cells)
    ii, jj = ii - si, jj - sj
    inside = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
    ii, jj = ii[inside], jj[inside]
    cells = np.zeros((h, w), dtype=bool)
    cells[ii, jj] = True
    moved = PSSGrid(cells=cells, resolution=rho, frame_center=new_center)
    if action is None:
        return moved

    theta = float(action)
    start = pusher_pose(cage_center_next, problem.R, theta, problem.pusher_length / 2.0)
    final = start.advanced(problem.d_push)
    r = problem.object_radius
    dist = segment_distance(np.column_stack(moved.world(ii, jj)), start)
    contact = dist <= r + problem.d_push
    cells = moved.cells.copy()
    if contact.any():
        d_con = problem.d_push - np.maximum(0.0, dist[contact] - r)
        odi, odj, ow = _candidate_offsets(problem.d_push, rho)
        d = start.direction
        u = ow[:, 0] * d.x + ow[:, 1] * d.y
        v = -ow[:, 0] * d.y + ow[:, 1] * d.x
        a = d_con[:, None]
        b = a / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = (u[None, :] >= -1e-12) & (
                u[None, :] ** 2 / a**2 + v[None, :] ** 2 / b**2 <= 1.0 + 1e-12
            )
        pair_c, pair_o = np.nonzero(reach)
        ni = ii[contact][pair_c] + odi[pair_o]
        nj = jj[contact][pair_c] + odj[pair_o]
        keep = (ni >= 0) & (ni < h) & (nj >= 0) & (nj < w)
        cells[ni[keep], nj[keep]] = True

    r_pen = r * math.cos(min(math.pi / 2.0, problem.d_push / (2.0 * r))) - rho
    oi, oj = np.nonzero(cells)
    pen = segment_distance(np.column_stack(moved.world(oi, oj)), final) < r_pen
    cells[oi[pen], oj[pen]] = False
    if not cells.any():
        raise EmptyResult("penetration cut removed every propagated cell")
    return PSSGrid(cells=cells, resolution=rho, frame_center=new_center)
