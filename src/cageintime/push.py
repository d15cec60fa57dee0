"""Quasi-static planar pushing with a moving geometric cage.

The object is abstracted to its bounding circle of radius r. A line pusher
of length 2*half_length starts tangent to the circle of radius R around the
cage center and travels d_push toward the center. Object displacement per
push is bounded by a semi-ellipse with semi-axes (d_con, d_con/2) pointing
along the push direction, where d_con is the pusher travel after first
contact. The planner propagates a binary occupancy grid of possible object
positions and selects push angles with a two-term outlier heuristic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .core import (
    Action,
    CageCircle,
    EmptyResult,
    FailureReason,
    InitialPositionOutsideCage,
    NoAction,
    PSSGrid,
    PushAngle,
    RunLog,
    Vec2,
    VerificationResult,
    WaypointSpacingTooLarge,
    action_to_json,
    cell_indices,
    contains_geometric,
    verify_caging_in_time,
)


@dataclass(frozen=True)
class PushProblem:
    """All geometry and tuning for one pushing task. Lengths in mm."""

    object_radius: float = 25.0  # r
    cage_size: float = 20.0  # R - r
    K: int = 128
    d_push: float = 20.0
    pusher_length: float = 100.0
    resolution: float = 1.0  # mm per pixel
    lambda1: float = 1.0
    lambda2: float = 1.0
    # shortlist size for angle selection; shrink when K is coarse so the
    # angular window the continuity preference may pick from stays narrow
    shortlist: int = 2
    trajectory: tuple[Vec2, ...] = ()
    # planner containment margin: the cage used during planning is shrunk by
    # this much so rasterization error cannot push true outcomes past the
    # nominal cage boundary
    margin: float = 4.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.object_radius <= 0 or self.cage_size <= 0:
            raise ValueError("object_radius and cage_size must be positive")
        if self.K < 3:
            raise ValueError("need at least 3 candidate angles")
        if self.d_push <= 0 or self.pusher_length <= 0:
            raise ValueError("d_push and pusher_length must be positive")
        if self.resolution > self.cage_size / 10.0 + 1e-12:
            raise ValueError("resolution must be at most cage_size/10")
        if not 0.0 <= self.margin < self.cage_size:
            raise ValueError("margin must lie in [0, cage_size)")
        if self.shortlist < 1:
            raise ValueError("shortlist must be at least 1")

    @property
    def R(self) -> float:
        """Pusher standoff radius: tangent circle for the line pusher."""
        return self.cage_size + self.object_radius

    @property
    def grid_size(self) -> int:
        n = math.ceil(2.0 * (self.R + self.d_push + 10.0) / self.resolution)
        return n + 1 if n % 2 == 0 else n


@dataclass(frozen=True)
class PusherPose:
    center: Vec2
    direction: Vec2  # unit, toward the cage center
    half_length: float

    def __post_init__(self):
        if abs(self.direction.norm() - 1.0) > 1e-9:
            raise ValueError("direction must be a unit vector")
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")

    @property
    def tangent(self) -> Vec2:
        """Unit vector along the pusher segment."""
        return Vec2(-self.direction.y, self.direction.x)

    def advanced(self, distance: float) -> "PusherPose":
        d = self.direction
        return PusherPose(
            Vec2(self.center.x + d.x * distance, self.center.y + d.y * distance),
            d,
            self.half_length,
        )


def pusher_pose(cage_center_next: Vec2, R: float, theta: float, half_length: float) -> PusherPose:
    """Starting pose of candidate angle theta: tangent to the standoff circle."""
    if R <= 0:
        raise ValueError("R must be positive")
    ct, st = math.cos(theta), math.sin(theta)
    center = Vec2(cage_center_next.x + R * ct, cage_center_next.y + R * st)
    return PusherPose(center, Vec2(-ct, -st), half_length)


def segment_distance(points: np.ndarray, pose: PusherPose) -> np.ndarray:
    """Distance from each point (M,2) to the pusher segment."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tang = pose.tangent
    rel_x = pts[:, 0] - pose.center.x
    rel_y = pts[:, 1] - pose.center.y
    along = rel_x * tang.x + rel_y * tang.y
    along = np.clip(along, -pose.half_length, pose.half_length)
    dx = rel_x - along * tang.x
    dy = rel_y - along * tang.y
    return np.hypot(dx, dy)


@functools.lru_cache(maxsize=None)
def _candidate_offsets(d_push: float, rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All integer pixel offsets within distance d_push, with world coords.
    Read-only, shared by every push with that reach and resolution."""
    m = int(math.ceil(d_push / rho))
    di, dj = np.mgrid[-m : m + 1, -m : m + 1]
    di, dj = di.ravel(), dj.ravel()
    wx = dj * rho
    wy = di * rho
    keep = wx * wx + wy * wy <= d_push * d_push + 1e-9
    offsets = di[keep], dj[keep], np.column_stack([wx[keep], wy[keep]])
    for arr in offsets:
        arr.setflags(write=False)
    return offsets


@functools.lru_cache(maxsize=None)
def _forward_offsets(
    direction: Vec2, d_push: float, rho: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The candidate offsets not behind a pusher moving along ``direction``
    (u >= -1e-12), with u**2 and v**2 of their components along and across
    it, and the key u**2 + 4 v**2, stably sorted by the key: the offsets a
    semi-ellipse of semi-axes (d_con, d_con/2) can hold are a prefix.
    Read-only, shared by every push at that angle, reach and resolution;
    the offsets are int32 to keep the K entries of a plan small."""
    odi, odj, ow = _candidate_offsets(d_push, rho)
    u = ow[:, 0] * direction.x + ow[:, 1] * direction.y
    v = -ow[:, 0] * direction.y + ow[:, 1] * direction.x
    fwd = u >= -1e-12
    u2, v2 = u[fwd] ** 2, v[fwd] ** 2
    key = u2 + 4.0 * v2
    order = np.argsort(key, kind="stable")
    offsets = (odi[fwd][order].astype(np.int32), odj[fwd][order].astype(np.int32),
               u2[order], v2[order], key[order])
    for arr in offsets:
        arr.setflags(write=False)
    return offsets


def propagate_pss(
    pss: PSSGrid,
    action: Optional[float],
    cage_center_next: Vec2,
    problem: PushProblem,
) -> PSSGrid:
    """One planning step: re-center the grid on the next cage center and,
    for a push at angle ``action``, add to every contacted cell the union of
    its semi-ellipse displacements, then cut cells whose bounding circle
    would penetrate the pusher's final pose.

    The frame shift is snapped to whole pixels and the residual kept in
    frame_center, so cell world positions are exact across steps. A cell
    the shift moves out of the window is dropped.
    """
    if pss.is_empty:
        raise EmptyResult("cannot propagate an empty PSS")
    rho = pss.resolution
    h, w = pss.cells.shape
    shift_x = (cage_center_next.x - pss.frame_center.x) / rho
    shift_y = (cage_center_next.y - pss.frame_center.y) / rho
    sj, si = int(round(shift_x)), int(round(shift_y))
    new_center = Vec2(pss.frame_center.x + sj * rho, pss.frame_center.y + si * rho)

    ii, jj = cell_indices(pss.cells)
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
        # travel after first contact, in [0, d_push] for every contacted cell
        d_con = problem.d_push - np.maximum(0.0, dist[contact] - r)
        # u along the push direction, v across it
        odi, odj, u2, v2, key = _forward_offsets(start.direction, problem.d_push, rho)
        # u2/a**2 + v2/b**2 is key/a**2 up to a few roundings, so the 1e-9
        # slack keeps every offset the test below can pass: test only the
        # sorted prefix of each cell, all prefixes laid end to end
        counts = np.searchsorted(key, d_con * d_con * (1.0 + 1e-9), side="right")
        ends = np.cumsum(counts)
        o = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        a = np.repeat(d_con, counts)
        b = a / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = u2[o] / a**2 + v2[o] / b**2 <= 1.0 + 1e-12
        ni = np.repeat(ii[contact], counts)[reach] + odi[o[reach]]
        nj = np.repeat(jj[contact], counts)[reach] + odj[o[reach]]
        keep = (ni >= 0) & (ni < h) & (nj >= 0) & (nj < w)
        cells[ni[keep], nj[keep]] = True

    # penetration cut against the final pusher pose. The contacted object
    # ends with its center at r*sin(beta) from the final segment, where the
    # rotation beta can deviate from pi/2 by at most d_push/(2r) under the
    # friction bound, so anything closer than r*cos(d_push/2r) is impossible
    # (one extra pixel of slack for rasterization).
    r_pen = r * math.cos(min(math.pi / 2.0, problem.d_push / (2.0 * r))) - rho
    oi, oj = cell_indices(cells)
    pen = segment_distance(np.column_stack(moved.world(oi, oj)), final) < r_pen
    cells[oi[pen], oj[pen]] = False
    if not cells.any():
        raise EmptyResult("penetration cut removed every propagated cell")
    return PSSGrid(cells=cells, resolution=rho, frame_center=new_center)


@functools.lru_cache(maxsize=None)
def _disk_half_widths(rp: int) -> np.ndarray:
    """isqrt(rp**2 - d**2) for d = -rp..rp: the half-width of each row of the
    pixel disk of radius rp. Read-only, shared by every POA of that radius."""
    hw = np.array([math.isqrt(rp * rp - d * d) for d in range(-rp, rp + 1)])
    hw.setflags(write=False)
    return hw


def compute_poa(pss: PSSGrid, r: float) -> PSSGrid:
    """Workspace area possibly occupied by the object body: the occupancy
    dilated by a disk of radius r (in pixels, rp = ceil(r/rho)). A cell is
    in it exactly when an occupied cell lies within squared pixel distance
    rp**2 of it."""
    h, w = pss.cells.shape
    flat = np.flatnonzero(pss.cells)
    if flat.size == 0:
        return pss
    # a disk wider than the window's diagonal covers the window from any
    # cell, so capping rp there bounds every buffer by a few windows
    rp = min(int(math.ceil(r / pss.resolution)), h + w)
    ii, jj = np.divmod(flat, w)
    # row runs [s, e) of occupied cells: a cell starts one unless its left
    # neighbour is occupied
    first = np.flatnonzero((np.diff(flat, prepend=-2) != 1) | (jj == 0))
    last = np.append(first[1:], flat.size) - 1
    ri, s, e = ii[first], jj[first], jj[last] + 1
    # the run [s, e) on row i covers [s - hw, e + hw) of row i + d: mark both
    # ends in a difference array on the occupied box padded by rp (and one
    # column for the last end), then sum along the rows
    hw = _disk_half_widths(rp)
    top, left = ii[0] - rp, int(jj.min()) - rp
    bottom, right = ii[-1] + rp + 1, int(jj.max()) + rp + 1
    fw = right - left + 1
    base = ((ri - ii[0])[:, None] + np.arange(2 * rp + 1)) * fw - left
    n = (bottom - top) * fw
    diff = (np.bincount((base + (s[:, None] - hw)).ravel(), minlength=n)
            - np.bincount((base + (e[:, None] + hw)).ravel(), minlength=n))
    cover = np.cumsum(diff.reshape(-1, fw), axis=1) > 0
    # the padded box, clipped to the window
    i0, i1 = max(top, 0), min(bottom, h)
    j0, j1 = max(left, 0), min(right, w)
    dil = np.zeros((h, w), dtype=bool)
    dil[i0:i1, j0:j1] = cover[i0 - top : i1 - top, j0 - left : j1 - left]
    return PSSGrid(cells=dil, resolution=pss.resolution, frame_center=pss.frame_center)


# candidate angles scored per broadcast: a (K x M) array for all K at once
# costs more memory than the time it saves
SCORE_BLOCK = 16


def heuristic_score(
    poa: PSSGrid,
    thetas: np.ndarray,
    cage_next: CageCircle,
    lambda1: float,
    lambda2: float,
    R: float,
) -> np.ndarray:
    """Outlier scores of the candidate angles ``thetas``, shape (K,).

    The candidate pusher line is tangent to the circle of radius R around
    the cage center at angle theta_k, with outward normal (cos, sin) of
    theta_k. S_out is the POA area strictly beyond that line (the far side
    from the cage center), d_out the largest perpendicular distance of a POA
    cell past it. Both are normalized (by cage area and cage radius) before
    weighting; an angle with no POA cell beyond its line scores 0.
    """
    x, y = poa.world(*cell_indices(poa.cells))
    # a cell past a line tangent to the circle of radius R lies outside that
    # circle: project only the ring of cells at least R - 1e-6 from its
    # center. The computed distances and projections are off by a few ulps
    # of the coordinates (about 1e-11 at 1e5 mm from the origin), so a
    # dropped cell projects to about -1e-6, never past the 1e-9 threshold
    cx, cy = cage_next.center.x, cage_next.center.y
    ring = (x - cx) ** 2 + (y - cy) ** 2 >= max(R - 1e-6, 0.0) ** 2
    x, y = x[ring], y[ring]
    rho = poa.resolution
    cage_area = math.pi * cage_next.radius**2
    scores = np.zeros(len(thetas))
    s_buf = np.empty((SCORE_BLOCK, x.size))
    t_buf = np.empty_like(s_buf)
    for lo in range(0, len(thetas), SCORE_BLOCK):
        block = thetas[lo : lo + SCORE_BLOCK]
        nx = np.array([math.cos(th) for th in block])[:, None]
        ny = np.array([math.sin(th) for th in block])[:, None]
        px, py = cage_next.center.x + R * nx, cage_next.center.y + R * ny
        s, t = s_buf[: len(block)], t_buf[: len(block)]
        np.subtract(x, px, out=s)
        s *= nx
        np.subtract(y, py, out=t)
        t *= ny
        s += t  # (x - px) * nx + (y - py) * ny, one row per angle
        n_out = np.count_nonzero(s > 1e-9, axis=1)
        # the largest projection is past the line whenever any cell is
        d_out = s.max(axis=1, initial=-math.inf)
        # finish in Python floats: `** 2` there is C pow, which can differ
        # in the last bit from numpy's x * x
        for i, (n, d) in enumerate(zip(n_out.tolist(), d_out.tolist())):
            if n:
                s_out = float(n) * rho * rho
                d_term = (d / cage_next.radius) ** 2
                scores[lo + i] = lambda1 * (s_out / cage_area) + lambda2 * d_term
    return scores


def _angular_distance(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def find_push(
    pss: PSSGrid,
    problem: PushProblem,
    cage_next: CageCircle,
    prev_action: Optional[float],
) -> Optional[PushAngle]:
    """Pick a push angle, or None if the PSS already fits the next cage.

    Scores all K candidates, keeps the problem.shortlist best (two by
    default), then prefers the one closest (wrap-around) to the previous
    push angle. Ties break toward the lowest candidate index.
    """
    if contains_geometric(pss, cage_next):
        return None
    poa = compute_poa(pss, problem.object_radius)
    ks = np.arange(1, problem.K + 1)
    thetas = 2.0 * math.pi * ks / problem.K
    # score against a line tangent to the triggering cage: a cell that just
    # violated containment must register as sticking out for some angle
    score_R = cage_next.radius + problem.object_radius
    scores = heuristic_score(poa, thetas, cage_next, problem.lambda1, problem.lambda2, score_R)
    order = np.lexsort((ks, -scores))  # descending score, then lowest k
    top = order[: min(problem.shortlist, problem.K)]
    if prev_action is None:
        best = top[0]
    else:
        dists = np.array([_angular_distance(thetas[i], prev_action) for i in top])
        best = top[int(np.lexsort((ks[top], dists))[0])]
    theta = float(thetas[best] % (2.0 * math.pi))
    return PushAngle(theta=theta, k=int(ks[best]))


def max_spacing(problem: PushProblem) -> float:
    spacing = 0.0
    for a, b in zip(problem.trajectory[:-1], problem.trajectory[1:]):
        spacing = max(spacing, (b - a).norm())
    return spacing


def checked_spacing(problem: PushProblem, initial_position: Vec2) -> float:
    """Reject what the planner does not support: no waypoint, waypoints more
    than cage_size/2 apart, or a start more than cage_size from the first
    waypoint. Returns the largest waypoint spacing."""
    if len(problem.trajectory) < 1:
        raise ValueError("trajectory must have at least one waypoint")
    spacing = max_spacing(problem)
    if spacing > problem.cage_size / 2.0 + 1e-9:
        raise WaypointSpacingTooLarge(
            f"waypoint spacing {spacing:.3f} mm exceeds "
            f"cage_size/2 = {problem.cage_size / 2.0:.3f} mm"
        )
    offset = (initial_position - problem.trajectory[0]).norm()
    if offset > problem.cage_size:
        raise InitialPositionOutsideCage(
            f"initial_position_mm: {offset:.3f} mm from the first waypoint exceeds "
            f"cage_size = {problem.cage_size:.3f} mm"
        )
    return spacing


def planning_cage(problem: PushProblem, center: Vec2) -> CageCircle:
    """Cage used for the planner's containment checks: shrunk by the margin
    so grid rasterization and oracle drift stay inside the nominal cage."""
    return CageCircle(center, problem.cage_size - problem.margin)


def trigger_cage(problem: PushProblem, center: Vec2, spacing: float) -> CageCircle:
    """Inner circle whose violation triggers a push.

    Tighter than the containment cage by the largest waypoint spacing
    (``max_spacing``, scanned once per plan by the caller): a cell is
    pushed before it can drift past the containment radius, and no cell can
    be deeper than cage_size from the next waypoint when the pusher is
    placed (the motion bound assumes contact happens during the push, not
    at placement).
    """
    radius = problem.cage_size - problem.margin - spacing
    radius = max(radius, 2.0 * problem.resolution)
    return CageCircle(center, radius)


def initial_set(problem: PushProblem, initial_position: Vec2) -> PSSGrid:
    """The one-cell PSS at the start position, framed on the first waypoint."""
    n = problem.grid_size
    return PSSGrid.from_points(
        initial_position.as_array()[None, :], problem.resolution,
        problem.trajectory[0], (n, n),
    )


def push_step(
    problem: PushProblem, pss: PSSGrid, action: Action, t: int
) -> tuple[PSSGrid, dict]:
    """The pushing step kernel of the planner and of ``replay`` (so of the
    verifier and the renderer): propagate the PSS under ``action`` to the
    cage at waypoint t + 1, check it against the planning cage, and return
    the runlog record.
    """
    target = problem.trajectory[t + 1]
    theta = action.theta if isinstance(action, PushAngle) else None
    pss = propagate_pss(pss, theta, target, problem)
    contained = contains_geometric(pss, planning_cage(problem, target))
    return pss, {
        "t": t,
        "action": action_to_json(action),
        "contained": bool(contained),
        "pss_cells": pss.count,
        "cage_center": [target.x, target.y],
    }


def plan_push(
    problem: PushProblem,
    initial_position: Vec2,
) -> tuple[tuple[Action, ...], VerificationResult, RunLog]:
    """Open-loop plan: at each step recenter the cage on the next waypoint,
    pick a push if needed, propagate, and check containment.
    """
    spacing = checked_spacing(problem, initial_position)
    pss = initial_set(problem, initial_position)
    log = RunLog()
    steps: list = []
    prev_theta: Optional[float] = None
    result = VerificationResult(True)
    for t in range(len(problem.trajectory) - 1):
        trigger = trigger_cage(problem, problem.trajectory[t + 1], spacing)
        push = find_push(pss, problem, trigger, prev_theta)
        action = NoAction() if push is None else push
        steps.append(action)
        pss, record = push_step(problem, pss, action, t)
        log.add(record)
        if push is not None:
            prev_theta = push.theta
        if not record["contained"]:
            result = VerificationResult(False, t, FailureReason.EscapedCage)
            break
    return tuple(steps), result, log


def replay(problem: PushProblem, initial_position: Vec2, plan: Sequence[Action]):
    """The pushing replay of the verifier and the renderer: a generator of
    ``(pss, record, failure)`` per step of ``plan``, stepped by ``push_step``,
    where ``failure`` is ``EscapedCage`` when the set leaves the planning
    cage and None otherwise. When called, it rejects the problems
    ``plan_push`` rejects and a plan longer than the path; a shorter plan
    replays as its prefix, as a failed plan of the planner does."""
    checked_spacing(problem, initial_position)
    if len(plan) > len(problem.trajectory) - 1:
        raise ValueError(f"plan of {len(plan)} steps is longer than "
                         f"its {len(problem.trajectory) - 1}-step path")

    def steps(pss):
        for t, action in enumerate(plan):
            pss, record = push_step(problem, pss, action, t)
            yield pss, record, None if record["contained"] else FailureReason.EscapedCage

    return steps(initial_set(problem, initial_position))


def verify_push_plan(problem: PushProblem, initial_position: Vec2,
                     actions: Sequence[Action]) -> VerificationResult:
    """Independent replay of a plan: the generic verification driver folds
    the failures of ``replay``."""
    return verify_caging_in_time(f for _, _, f in replay(problem, initial_position, actions))
