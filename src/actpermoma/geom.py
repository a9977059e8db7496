"""Core geometry: SE(2)/SE(3) poses, rays, dense grids and exact voxel traversal.

Conventions used throughout the package:
  * all lengths in meters, all angles in radians,
  * quaternions are (w, x, y, z), kept unit-norm,
  * camera frames are x-right / y-down / z-forward (optical axis),
  * grids are dense; an in-memory flat voxel id is the C-order index (z
    fastest, the order of `cells.reshape(-1)`) in traversal, fusion plans and
    IG counts alike; only the trace file's occupancy RLE runs x-fastest.

Everything here is value-like and pure: operations return new objects and
never mutate shared state, except the memos of `keep`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator

import numpy as np

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# shared results
# ---------------------------------------------------------------------------

def read_only(obj) -> None:
    """Make every array reachable from `obj` read-only: through tuples,
    lists and the attributes of an object, never through a dict, where a
    value keeps what it learns later (`DepthImage.plans`, `BeliefNode.kept`,
    a `SceneRecord`'s views)."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            read_only(item)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        for item in vars(obj).values():
            read_only(item)


def keep(memo: dict, key, make, limit: int | None = None):
    """`memo[key]`, or `make()` made `read_only` and kept there.

    The one rule for a result shared beyond the call that computes it: a
    result kept under a key is a pure function of that key and of what owns
    `memo` (a scene, a belief state, an image, a map, the process), so
    every later caller that asks with the same key gets the same object,
    and nobody may write to it.  A hit never calls `make`; an exception
    from `make` propagates and keeps nothing, so a failure a caller wants to
    share must be made a value (`plan_path` keeps a NoPath as its message).
    With a `limit`, `memo` is in use order, least recent first: a hit
    becomes the most recent, and a miss beyond `limit` entries drops the
    least recent one."""
    if key in memo:
        if limit is not None:
            memo[key] = memo.pop(key)
        return memo[key]
    value = make()
    read_only(value)
    memo[key] = value
    if limit is not None and len(memo) > limit:
        del memo[next(iter(memo))]
    return value


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    t = (theta + np.pi) % TWO_PI - np.pi
    if t <= -np.pi:
        t += TWO_PI
    return float(t)


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z)
# ---------------------------------------------------------------------------

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


def facing(xy: np.ndarray, target_xy: np.ndarray) -> Pose2:
    """Base pose at `xy` heading straight at `target_xy`."""
    heading = wrap_angle(float(np.arctan2(target_xy[1] - xy[1], target_xy[0] - xy[0])))
    return Pose2(float(xy[0]), float(xy[1]), heading)


@dataclass(frozen=True)
class Pose3:
    """Rigid transform: unit-quaternion orientation plus translation."""

    position: np.ndarray
    orientation: np.ndarray  # (w, x, y, z)

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(3))
        object.__setattr__(self, "orientation", quat_normalize(self.orientation))

    @staticmethod
    def from_xyz_yaw(x: float, y: float, z: float, yaw: float = 0.0) -> "Pose3":
        return Pose3(np.array([x, y, z]), quat_from_yaw(yaw))

    def compose(self, other: "Pose3") -> "Pose3":
        return Pose3(self.position + quat_rotate(self.orientation, other.position),
                     quat_mul(self.orientation, other.orientation))

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map local point(s) (..., 3) into the parent frame."""
        return quat_rotate(self.orientation, points) + self.position

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        return quat_rotate(quat_conj(self.orientation),
                           np.asarray(points, dtype=float) - self.position)

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.orientation)

    def key(self) -> tuple[bytes, bytes]:
        """The exact bytes of the pose: equal keys give every computation
        on the pose the same bits, which the per-pose caches rely on."""
        return self.position.tobytes(), self.orientation.tobytes()


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.cross` of two 3-vectors: its three multiply-subtract terms on
    Python floats, so the same bits without its per-call overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def look_at(position: np.ndarray, target: np.ndarray) -> Pose3:
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
    ref = np.array([0.0, 0.0, 1.0])
    if abs(float(np.dot(z, ref))) > 1.0 - 1e-9:
        ref = np.array([1.0, 0.0, 0.0])
    x = _cross(z, ref)
    x /= np.linalg.norm(x)
    y = _cross(z, x)
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
    """Axis-aligned box given by min/max corners.  A box is a value: its
    corners are read-only copies, so the boxes a shared scene computes
    lazily (`Primitive.world_aabb`) are as read-only as the rest of it."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lo", "hi"):
            corner = np.array(getattr(self, name), dtype=float).reshape(-1)
            corner.flags.writeable = False
            object.__setattr__(self, name, corner)

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return np.all((p >= self.lo) & (p <= self.hi), axis=-1)

    def inflated(self, margin: float) -> "Aabb":
        return Aabb(self.lo - margin, self.hi + margin)

    def corners(self) -> np.ndarray:
        """The 2**dim corners, shape (2**dim, dim)."""
        return np.array(list(itertools.product(*zip(self.lo, self.hi))))


# ---------------------------------------------------------------------------
# dense grids
# ---------------------------------------------------------------------------

class CellState(IntEnum):
    """The state code of a voxel (`TsdfGrid.state_volume`) and of a map cell."""

    FREE = 0
    OCCUPIED = 1
    UNKNOWN = 2


@dataclass
class Grid:
    """Dense grid of any number of axes; `cells` has leading shape `dims`
    plus free channels: the TSDF voxel grids and the 2D navigation map.

    World<->index mapping: cell idx spans origin + idx * cell_size ..
    origin + (idx + 1) * cell_size, its center is origin + (idx + .5) * cell_size.
    """

    origin: np.ndarray
    cell_size: float
    dims: tuple[int, ...]
    cells: np.ndarray

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=float).reshape(-1)
        self.dims = tuple(int(d) for d in self.dims)
        if any(d <= 0 for d in self.dims) or self.cell_size <= 0:
            raise ValueError("dims and cell_size must be positive")
        if self.origin.size != len(self.dims) or self.cells.shape[:len(self.dims)] != self.dims:
            raise ValueError("origin or cells shape does not match dims")

    @property
    def max_corner(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims) * self.cell_size

    def world_to_index(self, points: np.ndarray) -> np.ndarray:
        """Integer cell index of each point; may fall outside [0, dims)."""
        s = (np.asarray(points, dtype=float) - self.origin) / self.cell_size
        return np.floor(s).astype(np.int64)

    def index_to_world_center(self, idx: np.ndarray) -> np.ndarray:
        return self.origin + (np.asarray(idx, dtype=float) + 0.5) * self.cell_size

    def contains_index(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        return np.all((idx >= 0) & (idx < np.asarray(self.dims)), axis=-1)

    def axis_centers(self) -> list[np.ndarray]:
        """Per axis, the center coordinates of its cells."""
        return [o + (np.arange(n) + 0.5) * self.cell_size for o, n in zip(self.origin, self.dims)]

    @functools.cached_property
    def centers(self) -> np.ndarray:
        """All cell centers, shape (*dims, n_axes); cached (geometry is fixed).

        Stored column-major: `np.moveaxis(centers, -1, 0)` is a C-contiguous
        (n_axes, *dims) view, so each coordinate is one contiguous block."""
        cols = (self.origin.reshape(-1, *[1] * len(self.dims))
                + _center_offsets(self.dims, self.cell_size))
        return np.moveaxis(cols, 0, -1)


_CENTER_OFFSETS: dict[tuple, np.ndarray] = {}


def _center_offsets(dims: tuple[int, ...], cell_size: float) -> np.ndarray:
    """Read-only (n_axes, *dims) offsets of the cell centers from the grid
    origin, `(idx + 0.5) * cell_size`.  Every episode's target and nav grids
    share their dims and cell size, so each grid pays one add for its
    centers; the last 4 geometries are kept (`keep`)."""
    return keep(_CENTER_OFFSETS, (tuple(dims), cell_size),
                lambda: (np.indices(dims, dtype=float) + 0.5) * cell_size, 4)


# the run-length text form of an occupancy grid's cells in episode traces:
# comma-separated `<state>x<count>` runs over the cells in x-fastest order

def cells_to_rle(cells: np.ndarray) -> str:
    flat = cells.T.reshape(-1)
    starts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
    counts = np.diff(np.r_[starts, flat.size])
    return ",".join(f"{v}x{n}" for v, n in zip(flat[starts].tolist(), counts.tolist()))


def cells_from_rle(rle: str, dims: tuple[int, int]) -> np.ndarray:
    """The (nx, ny) uint8 cells that `cells_to_rle` encoded."""
    runs = [token.split("x") for token in rle.split(",")]
    flat = np.repeat([int(v) for v, _ in runs], [int(n) for _, n in runs])
    return flat.astype(np.uint8).reshape(dims[1], dims[0]).T


# ---------------------------------------------------------------------------
# exact voxel traversal
# ---------------------------------------------------------------------------
#
# Batched Amanatides-Woo style DDA.  traverse_ray() is the single-ray wrapper
# of the same core, so scalar and batched callers are guaranteed to agree.
# ray_aabb_interval() is the one ray-box slab test: traversal takes its grid
# entry and exit from it, depth rendering its hits on box primitives, and the
# IG scorer its cull of rays that miss the target box.

def ray_aabb_interval(origins: np.ndarray, directions: np.ndarray, box: Aabb
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-ray (t_enter, t_exit) of an AABB, t_enter clamped at 0;
    t_enter > t_exit means a miss.  Directions need not be normalized; t is
    measured in units of |direction|."""
    o = np.atleast_2d(np.asarray(origins, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    # one slab per axis on 1-D columns, chained with minimum/maximum: the
    # same bits as reducing (n, 3) slab arrays over axis 1, without their
    # strided temporaries
    t_enter = t_exit = None
    for a in range(o.shape[1]):
        oa, da = o[:, a], d[:, a]
        # a subnormal component's reciprocal overflows to inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = 1.0 / da
            lo = (box.lo[a] - oa) * inv
            hi = (box.hi[a] - oa) * inv
        # zero direction components: inside the slab -> (-inf, +inf), else
        # (-inf, -inf), which ends the interval before it starts
        zero = da == 0.0
        if zero.any():
            inside = (oa >= box.lo[a]) & (oa <= box.hi[a])
            lo = np.where(zero, -np.inf, lo)
            hi = np.where(zero, np.where(inside, np.inf, -np.inf), hi)
        near, far = np.minimum(lo, hi), np.maximum(lo, hi)
        t_enter = near if t_enter is None else np.maximum(t_enter, near)
        t_exit = far if t_exit is None else np.minimum(t_exit, far)
    return np.maximum(t_enter, 0.0), t_exit


# Boundary tie rule: a ray starting exactly on a voxel face belongs to the
# voxel on the +direction side of that face (for a zero direction component
# the floor() side is kept).  Axis ties when stepping are resolved in fixed
# x, y, z order.

def traverse_batch(
    grid: Grid,
    origins: np.ndarray,
    directions: np.ndarray,
    t_max: np.ndarray | float,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Advance all rays in lockstep through `grid`.

    Yields (ray_ids, flat) per iteration: the ids of the rays still active
    and the C-order flat id of the voxel each is in, in per-ray hit order.
    Directions need not be normalized; t is measured in units of
    |direction|.  A ray is dropped once it leaves the grid or its entry
    parameter reaches its t_max.  The yielded arrays are reused between
    iterations: consume them before advancing the generator.

    Per axis the loop keeps one row of each ray's t at its next boundary,
    t between boundaries, signed id stride and steps left inside the grid.
    Each iteration steps every ray along the axis of its smallest next
    boundary, found with two comparisons (ties go to x, then y, then z, as
    `argmin` breaks them), and compacts the rows only when a ray drops out.
    """
    o = np.atleast_2d(np.asarray(origins, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    n = o.shape[0]
    tm = np.broadcast_to(np.asarray(t_max, dtype=float), (n,)).copy()

    gmin = grid.origin
    vs = grid.cell_size
    dims = np.asarray(grid.dims)

    t_entry, t_exit = ray_aabb_interval(o, d, Aabb(gmin, grid.max_corner))
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / d

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
    # per axis, one row of each ray's t at its next boundary, t between
    # boundaries, signed id stride and in-grid steps left.  A ray never steps
    # along an axis its direction does not move on (the axis's t stays inf),
    # so its steps left there do not matter.  The rows and the per-ray
    # values live in one float and one int block, so that a compaction is
    # two gathers; each block is C-ordered, so its row ranges flatten to
    # views that the gathers and scatters address as axis * n + ray.
    n = ids.size
    floats = np.empty((7, n))
    floats[0:3] = np.where(d == 0.0, np.inf, t_next).T
    floats[3:6] = np.where(d == 0.0, np.inf, np.abs(inv) * vs).T
    floats[6] = tm
    ints = np.empty((8, n), dtype=np.int64)
    strides = np.array([grid.dims[1] * grid.dims[2], grid.dims[2], 1])
    ints[0:3] = (step * strides).T
    ints[3:6] = np.where(step > 0, dims - 1 - ijk, ijk).T
    ints[6] = ijk @ strides
    ints[7] = ids

    rows = np.arange(n)
    while True:
        tx, ty, tz = floats[0:3]
        t_next, t_delta, tm = floats[0:3].reshape(-1), floats[3:6].reshape(-1), floats[6]
        flat_step, left, flat, ids = ints[0:3].reshape(-1), ints[3:6].reshape(-1), ints[6], ints[7]
        while True:
            yield ids, flat

            # advance every ray one voxel along its smallest-boundary axis
            y_first = ty < tx
            t_cur = np.minimum(tx, ty)
            z_first = tz < t_cur
            np.minimum(t_cur, tz, out=t_cur)
            lin = np.where(z_first, 2 * n, y_first * n)
            lin += rows
            t_next[lin] = t_cur + t_delta[lin]
            flat += flat_step[lin]
            stepped_left = left[lin] - 1
            left[lin] = stepped_left
            ok = stepped_left >= 0
            ok &= t_cur < tm
            if not ok.all():
                break
        keep = np.flatnonzero(ok)
        if keep.size == 0:
            return
        floats, ints = floats.take(keep, axis=1), ints.take(keep, axis=1)
        n = keep.size
        rows = rows[:n]


def traverse_ray(grid: Grid, ray: Ray, max_range: float) -> list[tuple[int, int, int]]:
    """Ordered voxel indices a ray visits, from grid entry to exit/max_range.

    Empty when the ray never enters the grid within max_range.
    """
    if max_range <= 0:
        raise ValueError("max_range must be positive")
    flat = [int(f[0]) for _, f in traverse_batch(grid, ray.origin[None, :],
                                                ray.direction[None, :], max_range)]
    ijk = np.unravel_index(np.array(flat, dtype=np.intp), grid.dims)
    return list(zip(*(a.tolist() for a in ijk)))
