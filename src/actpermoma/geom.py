"""Core geometry: SE(2)/SE(3) poses, rays, dense voxel grids and exact voxel traversal.

Conventions used throughout the package:
  * all lengths in meters, all angles in radians,
  * quaternions are (w, x, y, z), kept unit-norm,
  * camera frames are x-right / y-down / z-forward (optical axis),
  * voxel grids are dense, flattened x-fastest (x varies quickest).

Everything here is value-like and pure: operations return new objects and
never mutate shared state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    t = (theta + np.pi) % TWO_PI - np.pi
    if t <= -np.pi:
        t += TWO_PI
    return float(t)


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z)
# ---------------------------------------------------------------------------

def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("degenerate quaternion")
    return q / n


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Shepperd's method; returns a unit quaternion with w >= 0."""
    t = np.trace(m)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(1.0 + m[i, i] - m[j, j] - m[k, k], 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[j, i] + m[i, j]) / s
        q[1 + k] = (m[k, i] + m[i, k]) / s
    if q[0] < 0:
        q = -q
    return quat_normalize(q)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v (shape (..., 3)) by unit quaternion q."""
    return np.asarray(v, dtype=float) @ quat_to_matrix(q).T


def quat_from_yaw(yaw: float) -> np.ndarray:
    h = 0.5 * yaw
    return np.array([np.cos(h), 0.0, 0.0, np.sin(h)])


# ---------------------------------------------------------------------------
# poses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose2:
    """Planar pose (x, y, theta) with theta kept in (-pi, pi]."""

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def compose(self, other: "Pose2") -> "Pose2":
        c, s = np.cos(self.theta), np.sin(self.theta)
        return Pose2(self.x + c * other.x - s * other.y,
                     self.y + s * other.x + c * other.y,
                     self.theta + other.theta)

    def inverse(self) -> "Pose2":
        c, s = np.cos(self.theta), np.sin(self.theta)
        return Pose2(-(c * self.x + s * self.y),
                     -(-s * self.x + c * self.y),
                     -self.theta)

    def transform(self, point_xy: np.ndarray) -> np.ndarray:
        """Map local 2D point(s) into the parent frame."""
        c, s = np.cos(self.theta), np.sin(self.theta)
        p = np.asarray(point_xy, dtype=float)
        return np.stack([self.x + c * p[..., 0] - s * p[..., 1],
                         self.y + s * p[..., 0] + c * p[..., 1]], axis=-1)


POSE2_IDENTITY = Pose2(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Pose3:
    """Rigid transform: unit-quaternion orientation plus translation."""

    position: np.ndarray
    orientation: np.ndarray  # (w, x, y, z)

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(3))
        object.__setattr__(self, "orientation", quat_normalize(self.orientation))

    @staticmethod
    def identity() -> "Pose3":
        return Pose3(np.zeros(3), quat_identity())

    @staticmethod
    def from_xyz_yaw(x: float, y: float, z: float, yaw: float = 0.0) -> "Pose3":
        return Pose3(np.array([x, y, z]), quat_from_yaw(yaw))

    def compose(self, other: "Pose3") -> "Pose3":
        return Pose3(self.position + quat_rotate(self.orientation, other.position),
                     quat_mul(self.orientation, other.orientation))

    def inverse(self) -> "Pose3":
        qi = quat_conj(self.orientation)
        return Pose3(-quat_rotate(qi, self.position), qi)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map local point(s) (..., 3) into the parent frame."""
        return quat_rotate(self.orientation, points) + self.position

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        return quat_rotate(quat_conj(self.orientation), np.asarray(points, dtype=float) - self.position)

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.orientation)


def look_at(position: np.ndarray, target: np.ndarray, up: np.ndarray | None = None) -> Pose3:
    """Camera pose at `position` with optical axis (+z, y-down frame) through `target`.

    Roll is fixed by the world up vector; when the view direction is within
    ~1e-9 of vertical the +x world axis is used as the reference instead.
    """
    position = np.asarray(position, dtype=float)
    forward = np.asarray(target, dtype=float) - position
    n = np.linalg.norm(forward)
    if n < 1e-12:
        raise ValueError("look_at target coincides with camera position")
    z = forward / n
    ref = np.array([0.0, 0.0, 1.0]) if up is None else np.asarray(up, dtype=float)
    if abs(float(np.dot(z, ref))) > 1.0 - 1e-9:
        ref = np.array([1.0, 0.0, 0.0])
    x = np.cross(z, ref)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    rot = np.column_stack([x, y, z])
    return Pose3(position, quat_from_matrix(rot))


@dataclass(frozen=True)
class Ray:
    """Half-line with unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self) -> None:
        o = np.asarray(self.origin, dtype=float).reshape(3)
        d = np.asarray(self.direction, dtype=float).reshape(3)
        n = np.linalg.norm(d)
        if abs(n - 1.0) > 1e-9:
            d = d / n
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box given by min/max corners."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float).reshape(-1))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float).reshape(-1))

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return np.all((p >= self.lo) & (p <= self.hi), axis=-1)

    def inflated(self, margin: float) -> "Aabb":
        return Aabb(self.lo - margin, self.hi + margin)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


# ---------------------------------------------------------------------------
# dense grids
# ---------------------------------------------------------------------------

@dataclass
class VoxelGrid3:
    """Dense 3D grid; `cells` has leading shape (nx, ny, nz) plus free channels.

    World<->index mapping: voxel (i, j, k) spans
    origin + (i, j, k) * voxel_size .. origin + (i+1, j+1, k+1) * voxel_size,
    its center is origin + (i+.5, j+.5, k+.5) * voxel_size.
    """

    origin: np.ndarray
    voxel_size: float
    dims: tuple[int, int, int]
    cells: np.ndarray

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.dims = tuple(int(d) for d in self.dims)
        if any(d <= 0 for d in self.dims) or self.voxel_size <= 0:
            raise ValueError("dims and voxel_size must be positive")
        if tuple(self.cells.shape[:3]) != self.dims:
            raise ValueError("cells shape does not match dims")

    @property
    def max_corner(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims) * self.voxel_size

    def world_to_index(self, points: np.ndarray) -> np.ndarray:
        """Integer voxel index of each point; may fall outside [0, dims)."""
        s = (np.asarray(points, dtype=float) - self.origin) / self.voxel_size
        return np.floor(s).astype(np.int64)

    def index_to_world_center(self, idx: np.ndarray) -> np.ndarray:
        return self.origin + (np.asarray(idx, dtype=float) + 0.5) * self.voxel_size

    def contains_index(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        return np.all((idx >= 0) & (idx < np.asarray(self.dims)), axis=-1)

    def flat_index(self, idx: np.ndarray) -> np.ndarray:
        """x-fastest linear index: the order of `cells.ravel(order="F")`."""
        idx = np.asarray(idx)
        nx, ny, _ = self.dims
        return idx[..., 0] + nx * (idx[..., 1] + ny * idx[..., 2])

    def centers(self) -> np.ndarray:
        """All voxel centers, shape (nx, ny, nz, 3); cached (geometry is fixed)."""
        cached = getattr(self, "_centers", None)
        if cached is not None:
            return cached
        nx, ny, nz = self.dims
        i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
        idx = np.stack([i, j, k], axis=-1)
        out = self.index_to_world_center(idx)
        object.__setattr__(self, "_centers", out)
        return out


class CellState(IntEnum):
    FREE = 0
    OCCUPIED = 1
    UNKNOWN = 2


@dataclass
class OccupancyGrid2:
    """2D occupancy map derived from a voxel grid by column reduction."""

    origin: np.ndarray
    cell_size: float
    dims: tuple[int, int]
    cells: np.ndarray  # uint8 CellState codes, shape (nx, ny)

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=float).reshape(2)
        self.dims = tuple(int(d) for d in self.dims)

    def world_to_cell(self, points_xy: np.ndarray) -> np.ndarray:
        s = (np.asarray(points_xy, dtype=float) - self.origin) / self.cell_size
        return np.floor(s).astype(np.int64)

    def cell_to_world_center(self, idx: np.ndarray) -> np.ndarray:
        return self.origin + (np.asarray(idx, dtype=float) + 0.5) * self.cell_size

    def contains_cell(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        return np.all((idx >= 0) & (idx < np.asarray(self.dims)), axis=-1)

    def state_at(self, point_xy: np.ndarray) -> CellState:
        c = self.world_to_cell(point_xy)
        if not bool(self.contains_cell(c)):
            return CellState.UNKNOWN
        return CellState(int(self.cells[c[0], c[1]]))


# ---------------------------------------------------------------------------
# exact voxel traversal
# ---------------------------------------------------------------------------
#
# Batched Amanatides-Woo style DDA.  traverse_ray() is the single-ray wrapper
# of the same core, so scalar and batched callers are guaranteed to agree.
#
# Boundary tie rule: a ray starting exactly on a voxel face belongs to the
# voxel on the +direction side of that face (for a zero direction component
# the floor() side is kept).  Axis ties when stepping are resolved in fixed
# x, y, z order.

def traverse_batch(
    grid: VoxelGrid3,
    origins: np.ndarray,
    directions: np.ndarray,
    t_max: np.ndarray | float,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Advance all rays in lockstep through `grid`.

    Yields (ray_ids, ijk) per iteration: the voxel each still-active ray is
    in, in per-ray hit order.  Directions need not be normalized; t is
    measured in units of |direction|.  A ray is dropped once it leaves the
    grid or its entry parameter reaches its t_max.  The yielded arrays are
    reused between iterations: consume them before advancing the generator.
    """
    o = np.atleast_2d(np.asarray(origins, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    n = o.shape[0]
    tm = np.broadcast_to(np.asarray(t_max, dtype=float), (n,)).copy()

    gmin = grid.origin
    gmax = grid.max_corner
    vs = grid.voxel_size
    dims = np.asarray(grid.dims)

    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        lo = (gmin - o) * inv
        hi = (gmax - o) * inv
    # zero direction components: inside the slab -> (-inf, +inf), else empty
    zero = d == 0.0
    if zero.any():
        inside = (o >= gmin) & (o <= gmax)
        lo = np.where(zero, np.where(inside, -np.inf, np.inf), lo)
        hi = np.where(zero, np.where(inside, np.inf, -np.inf), hi)
    t_near = np.minimum(lo, hi)
    t_far = np.maximum(lo, hi)
    t_entry = np.maximum(t_near.max(axis=1), 0.0)
    t_exit = t_far.min(axis=1)

    # strict: a voxel entered exactly at t_max is only grazed by the segment
    alive = (t_entry <= t_exit) & (t_entry < tm) & np.isfinite(t_entry)
    ids = np.nonzero(alive)[0]
    if ids.size == 0:
        return

    o, d, inv, tm = o[ids], d[ids], inv[ids], tm[ids]
    t_cur = t_entry[ids]

    p = o + t_cur[:, None] * d
    s = (p - gmin) / vs
    ijk = np.floor(s).astype(np.int64)
    # +direction-side tie rule for points exactly on a face
    on_face = s == np.floor(s)
    ijk -= (on_face & (d < 0)).astype(np.int64)
    # the slab test guarantees the entry point lies on the grid box; clamp
    # away float undershoot of the entry face
    np.clip(ijk, 0, dims - 1, out=ijk)

    step = np.where(d > 0, 1, np.where(d < 0, -1, 0)).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        next_bound = gmin + (ijk + (step > 0)) * vs
        t_next = (next_bound - o) * inv
    t_next = np.where(d == 0.0, np.inf, t_next)
    t_delta = np.where(d == 0.0, np.inf, np.abs(inv) * vs)

    while ids.size:
        yield ids, ijk

        # advance every ray one voxel along its smallest-boundary axis; only
        # the stepped component can leave the grid, so the bounds check is 1D
        rows = np.arange(ids.size)
        axis = np.argmin(t_next, axis=1)
        t_cur = t_next[rows, axis]
        moved = ijk[rows, axis] + step[rows, axis]
        ijk[rows, axis] = moved
        t_next[rows, axis] += t_delta[rows, axis]
        ok = (moved >= 0) & (moved < dims[axis]) & (t_cur < tm)
        if not ok.all():
            ids, ijk, t_next, t_delta, step, tm = (
                ids[ok], ijk[ok], t_next[ok], t_delta[ok], step[ok], tm[ok])
            if ids.size == 0:
                return


def traverse_ray(grid: VoxelGrid3, ray: Ray, max_range: float) -> list[tuple[int, int, int]]:
    """Ordered voxel indices a ray visits, from grid entry to exit/max_range.

    Empty when the ray never enters the grid within max_range.
    """
    if max_range <= 0:
        raise ValueError("max_range must be positive")
    out: list[tuple[int, int, int]] = []
    for _, ijk in traverse_batch(grid, ray.origin[None, :], ray.direction[None, :], max_range):
        out.append((int(ijk[0, 0]), int(ijk[0, 1]), int(ijk[0, 2])))
    return out


def ray_aabb_interval(origins: np.ndarray, directions: np.ndarray, box: Aabb
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-ray (t_enter, t_exit) of an AABB; t_enter > t_exit means a miss."""
    o = np.atleast_2d(np.asarray(origins, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        lo = (box.lo - o) * inv
        hi = (box.hi - o) * inv
    zero = d == 0.0
    if zero.any():
        inside = (o >= box.lo) & (o <= box.hi)
        lo = np.where(zero, np.where(inside, -np.inf, np.inf), lo)
        hi = np.where(zero, np.where(inside, np.inf, -np.inf), hi)
    t_enter = np.maximum(np.minimum(lo, hi).max(axis=1), 0.0)
    t_exit = np.maximum(lo, hi).min(axis=1)
    return t_enter, t_exit
