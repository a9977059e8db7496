"""Randomized tabletop scenarios with ground truth, and the simulated depth camera.

A scene is a handful of analytic primitives: a floor slab, a table, boxy or
cylindrical objects on the table (one of which is the grasp target) and, in
complex scenarios, a free-standing obstacle between the robot spawn region
and the table.  The depth camera is a pinhole model ray-cast against the
primitives, no noise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .geom import (
    Aabb,
    Pose2,
    Pose3,
    _cross,
    facing,
    keep,
    product_rows,
    quat_from_matrix,
    ray_aabb_interval,
    read_only,
)

TABLE_HALF = 0.4          # 0.8 m square table
TABLE_HEIGHT = 0.75
ARENA_HALF = 3.2
ROBOT_RADIUS = 0.3
FLOOR_THICKNESS = 0.1


class SceneGenFailure(RuntimeError):
    """Rejection sampling exceeded its attempt budget."""


class Tag(str, Enum):
    TABLE = "table"
    OBJECT = "object"
    OBSTACLE = "obstacle"
    FLOOR = "floor"


class Approach(str, Enum):
    TOP_DOWN = "top_down"
    SIDE_45 = "side_45"


class SceneKind(str, Enum):
    SIMPLE = "simple"
    COMPLEX = "complex"


@dataclass(frozen=True)
class Box:
    half_extents: np.ndarray

    def __post_init__(self) -> None:
        he = np.asarray(self.half_extents, dtype=float).reshape(3)
        if (he <= 0).any():
            raise ValueError("box half extents must be positive")
        object.__setattr__(self, "half_extents", he)


@dataclass(frozen=True)
class Cylinder:
    radius: float
    height: float

    def __post_init__(self) -> None:
        if self.radius <= 0 or self.height <= 0:
            raise ValueError("cylinder dimensions must be positive")


Shape = Box | Cylinder


@dataclass(frozen=True)
class Primitive:
    shape: Shape
    pose: Pose3
    tag: Tag
    object_id: int | None = None  # set for Tag.OBJECT only

    @property
    def half_extents(self) -> np.ndarray:
        """Of the shape's local bounding box: (radius, radius, height / 2) for a cylinder."""
        if isinstance(self.shape, Box):
            return self.shape.half_extents
        return np.array([self.shape.radius, self.shape.radius, self.shape.height / 2.0])

    @functools.cached_property
    def world_aabb(self) -> Aabb:
        """World AABB of the corners of the shape's local bounding box."""
        world = self.pose.transform(Aabb(-self.half_extents, self.half_extents).corners())
        return Aabb(world.min(axis=0), world.max(axis=0))


@dataclass(frozen=True)
class GroundTruthGrasp:
    """Object-attached grasp annotation; `pose` position is the contact point."""

    pose: Pose3
    intrinsic_quality: float
    approach: Approach

    def __post_init__(self) -> None:
        if not 0.0 <= self.intrinsic_quality <= 1.0:
            raise ValueError("intrinsic_quality outside [0, 1]")


@dataclass(frozen=True)
class CameraIntrinsics:
    width: int
    height: int
    vertical_fov: float
    max_range: float

    def __post_init__(self) -> None:
        if self.width < 16 or self.height < 16:
            raise ValueError("image must be at least 16x16")
        if not 0.0 < self.vertical_fov < np.pi:
            raise ValueError("vertical_fov outside (0, pi)")

    @property
    def focal(self) -> float:
        return (self.height / 2.0) / np.tan(self.vertical_fov / 2.0)

    def downsampled(self, factor: int) -> "CameraIntrinsics":
        return CameraIntrinsics(max(self.width // factor, 16),
                                max(self.height // factor, 16),
                                self.vertical_fov, self.max_range)

    def pixel_dirs(self) -> np.ndarray:
        """Camera-frame ray directions with unit forward component, one per
        pixel, row-major (v, u) order.  Shape (height*width, 3); kept per
        intrinsics value (`keep`), so read-only."""
        def make() -> np.ndarray:
            f = self.focal
            cx = (self.width - 1) / 2.0
            cy = (self.height - 1) / 2.0
            u, v = np.meshgrid(np.arange(self.width), np.arange(self.height))
            d = np.stack([(u - cx) / f, (v - cy) / f, np.ones_like(u, dtype=float)], axis=-1)
            return d.reshape(-1, 3)
        return keep(_PIXEL_DIRS, self, make)

    def project(self, local: np.ndarray, out: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Unrounded pixel coordinates (u, v) of camera-frame points (..., 3),
        the inverse of `pixel_dirs`; meaningful only for points with z > 0.

        Each is `c + f * x / z`, computed into the two rows of `out`, shape
        (2, ...), when it is given, else of a new array."""
        f = self.focal
        z = local[..., 2]
        uv = np.empty((2, *z.shape)) if out is None else out
        for c, center, axis in zip(uv, ((self.width - 1) / 2.0, (self.height - 1) / 2.0), (0, 1)):
            np.multiply(f, local[..., axis], out=c)
            np.divide(c, z, out=c)
            np.add(center, c, out=c)
        return uv[0], uv[1]

    def box_pixels(self, corners: np.ndarray) -> list[np.ndarray]:
        """Per box, the row-major pixel indices, ascending, whose rays can reach it.

        `corners` holds the camera-frame corners of boxes, shape (n, 8, 3).
        A pixel ray that meets a box meets it at a point whose projection is
        the pixel itself, and every box point projects inside the rectangle
        that bounds the projected corners.  So the pixels of that rectangle,
        widened by 1 px against rounding, are kept.  Every pixel is kept when
        a corner lies at or behind the plane of the optical center (camera
        z <= 1e-9), where the projected corners do not bound the box's image.
        """
        behind = (corners[..., 2] <= 1e-9).any(axis=1)
        uv = np.empty((2, *corners.shape[:2]))
        with np.errstate(divide="ignore", invalid="ignore"):
            self.project(corners, out=uv)
        # per box (u, v) of its first and last pixel; an empty rectangle ends
        # just before it starts, so no slice bound is negative
        first = np.maximum(np.ceil(uv.min(axis=2) - 1.0), 0)
        last = np.maximum(np.minimum(np.floor(uv.max(axis=2) + 1.0),
                                     [[self.width - 1], [self.height - 1]]), first - 1)
        ids = np.arange(self.width * self.height).reshape(self.height, self.width)
        bounds = zip(behind.tolist(), *first.tolist(), *last.tolist())
        return [ids.ravel() if b else ids[int(v0):int(v1) + 1, int(u0):int(u1) + 1].ravel()
                for b, u0, v0, u1, v1 in bounds]


DEFAULT_INTRINSICS = CameraIntrinsics(64, 64, np.deg2rad(60.0), 3.0)
_PIXEL_DIRS: dict[CameraIntrinsics, np.ndarray] = {}  # `CameraIntrinsics.pixel_dirs`


@dataclass(frozen=True)
class DepthImage:
    """A depth image is a value: `depths` is a read-only copy of the array it
    is built from, so a cache may hold the image and key work on it, such as
    the fusion plans in `plans` (`perception.integrate_depth`)."""

    intrinsics: CameraIntrinsics
    depths: np.ndarray  # (height, width), z-depth in meters, NaN = no hit
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = np.array(self.depths, dtype=float)
        if d.shape != (self.intrinsics.height, self.intrinsics.width):
            raise ValueError("depth shape does not match intrinsics")
        d.flags.writeable = False
        object.__setattr__(self, "depths", d)


@dataclass(frozen=True)
class Scene:
    primitives: tuple[Primitive, ...]
    target_id: int
    target_center: np.ndarray
    target_bbox: Aabb
    arena: Aabb  # 2D bounds (lo/hi are 2-vectors)
    truth_grasps: tuple[GroundTruthGrasp, ...]
    kind: SceneKind
    hard_grasps: bool
    seed: int
    obstacle_azimuth: float | None = None

    @property
    def target_primitive(self) -> Primitive:
        for p in self.primitives:
            if p.tag is Tag.OBJECT and p.object_id == self.target_id:
                return p
        raise ValueError("scene has no target primitive")

    def world_truth_grasp_poses(self) -> list[Pose3]:
        obj = self.target_primitive.pose
        return [obj.compose(g.pose) for g in self.truth_grasps]

    @functools.cached_property
    def render_prep(self) -> tuple:
        """Read-only, made on the first render: per primitive its rotation,
        position and `half_extents`; 8 world corner rows per non-floor one's
        bounding box, in the order of the `(shape, ids)` groups that follow;
        per floor its shape, id and top face height."""
        prims = self.primitives
        solids = tuple((kind, ids) for kind in (Box, Cylinder) if (ids := tuple(
            i for i, p in enumerate(prims) if p.tag is not Tag.FLOOR and type(p.shape) is kind)))
        rotations = np.stack([p.pose.rotation_matrix() for p in prims])
        positions = np.stack([p.pose.position for p in prims])
        half_extents = np.stack([p.half_extents for p in prims])
        corners = (Aabb(-np.ones(3), np.ones(3)).corners() * half_extents[:, None]
                   @ rotations.transpose(0, 2, 1) + positions[:, None])
        prep = (rotations, positions, half_extents,
                corners[[i for _, ids in solids for i in ids]].reshape(-1, 3), solids,
                tuple((type(p.shape), i, float(corners[i, :, 2].max()))
                      for i, p in enumerate(prims) if p.tag is Tag.FLOOR))
        read_only(prep)
        return prep


# ---------------------------------------------------------------------------
# analytic geometry on primitives
# ---------------------------------------------------------------------------

def primitive_sdf(prim: Primitive, points: np.ndarray) -> np.ndarray:
    """Exact signed distance from world points to the primitive surface."""
    p = prim.pose.inverse_transform(np.atleast_2d(points))
    if isinstance(prim.shape, Box):
        q = np.abs(p) - prim.shape.half_extents
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(q.max(axis=-1), 0.0)
        return outside + inside
    radial = np.hypot(p[..., 0], p[..., 1]) - prim.shape.radius
    axial = np.abs(p[..., 2]) - prim.shape.height / 2.0
    q = np.stack([radial, axial], axis=-1)
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
    inside = np.minimum(q.max(axis=-1), 0.0)
    return outside + inside


def scene_sdf(scene: Scene, points: np.ndarray) -> np.ndarray:
    """Signed distance from each point to the nearest scene primitive."""
    return np.min(np.stack([primitive_sdf(p, points) for p in scene.primitives]), axis=0)


def _box_hits(o: np.ndarray, d: np.ndarray, he: np.ndarray) -> np.ndarray:
    """First-hit t per ray (inf = miss) of the box of half extents `he`,
    (3,) or one row per ray, centred at the origin of the rays' frame."""
    # a hit needs t_near > 1e-9 (nearer is a ray starting inside), so the
    # clamp of t_near at 0 changes no hit
    t_near, t_far = ray_aabb_interval(o, d, (-he, he))
    return np.where((t_near <= t_far) & (t_near > 1e-9), t_near, np.inf)


def _cylinder_hits(o: np.ndarray, d: np.ndarray, he: np.ndarray) -> np.ndarray:
    """Likewise for the z-axis cylinder of radius `he[..., 0]` and half
    height `he[..., 2]`: the nearest good one of its two side roots and two
    cap crossings, stacked as rows.  Every square is taken on an array, never
    a numpy scalar: `np.float64(x) ** 2` misses the bits of the array form
    `x ** 2` on about 8 in 10^5 values."""
    r, h2 = he[..., 0], he[..., 2]
    eps = 1e-9
    a = d[:, 0] ** 2 + d[:, 1] ** 2
    b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1])
    c = o[:, 0] ** 2 + o[:, 1] ** 2 - r * r
    disc = b * b - 4 * a * c
    ok = (disc >= 0) & (a > eps)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        side = np.stack([-b - sq, -b + sq]) / (2 * a)
        cap = (np.stack([-h2, h2]).reshape(2, -1) - o[:, 2]) / d[:, 2]
        x, y = o[:, 0] + cap * d[:, 0], o[:, 1] + cap * d[:, 1]
        good = np.concatenate([ok & (side > eps) & (np.abs(o[:, 2] + side * d[:, 2]) <= h2),
                               (np.abs(d[:, 2]) > eps) & (cap > eps) & (x * x + y * y <= r * r)])
    return np.where(good, np.concatenate([side, cap]), np.inf).min(axis=0)


_HITS = {Box: _box_hits, Cylinder: _cylinder_hits}


def primitive_ray_hits(prim: Primitive, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """First-hit parameter t per ray (inf = miss); dirs may be unnormalized,
    t is then measured in units of |dir|.  Rays starting inside count as a miss.
    The one-primitive call of the shape kernels `render_depth` batches."""
    rot = prim.pose.rotation_matrix()
    o = (np.atleast_2d(origins) - prim.pose.position) @ rot
    d = np.atleast_2d(dirs) @ rot
    return _HITS[type(prim.shape)](o, d, prim.half_extents)


def footprint_clearance(prim: Primitive, xy: np.ndarray) -> float:
    """2D distance from a ground point to the primitive's vertical-projection
    footprint (negative when inside).  Floor primitives are ignored by callers."""
    local = prim.pose.inverse_transform(np.array([xy[0], xy[1], prim.pose.position[2]]))
    if isinstance(prim.shape, Box):
        q = np.abs(local[:2]) - prim.shape.half_extents[:2]
        return float(np.linalg.norm(np.maximum(q, 0.0)) + min(q.max(), 0.0))
    return float(np.hypot(local[0], local[1]) - prim.shape.radius)


def base_pose_collides(scene: Scene, xy: np.ndarray, radius: float = ROBOT_RADIUS) -> bool:
    """Ground-truth collision check of a base disc against table/objects/obstacle."""
    for prim in scene.primitives:
        if prim.tag is Tag.FLOOR:
            continue
        if footprint_clearance(prim, xy) < radius:
            return True
    return False


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _object_shape(rng: np.random.Generator, target: bool = False) -> Shape:
    # the target gets the taller half of the size range so its contact
    # regions clear the tabletop
    min_h = 0.03 if target else 0.02
    if rng.random() < 0.5:
        he = np.array([rng.uniform(0.02, 0.06), rng.uniform(0.02, 0.06),
                       rng.uniform(min_h, 0.06)])
        return Box(he)
    return Cylinder(float(rng.uniform(0.02, 0.05)), float(rng.uniform(2 * min_h, 0.12)))


def _shape_footprint_radius(shape: Shape) -> float:
    if isinstance(shape, Box):
        return float(np.hypot(shape.half_extents[0], shape.half_extents[1]))
    return shape.radius


def _shape_height(shape: Shape) -> float:
    if isinstance(shape, Box):
        return 2.0 * float(shape.half_extents[2])
    return shape.height


def _side_radius(shape: Shape, azimuth: float) -> float:
    """Distance from the object's vertical axis to its side surface at azimuth."""
    if isinstance(shape, Cylinder):
        return shape.radius
    hx, hy = float(shape.half_extents[0]), float(shape.half_extents[1])
    c, s = abs(np.cos(azimuth)), abs(np.sin(azimuth))
    return 1.0 / max(c / hx, s / hy)


def _grasp_orientation(approach_dir: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Quaternion whose +z axis is the approach direction (into the object)."""
    z = approach_dir / np.linalg.norm(approach_dir)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(float(np.dot(z, ref))) > 1.0 - 1e-6:
        ref = np.array([0.0, 1.0, 0.0])
    x = _cross(ref, z)
    x /= np.linalg.norm(x)
    y = _cross(z, x)
    rot = np.column_stack([x, y, z])
    # random wrist roll about the approach axis
    roll = rng.uniform(0.0, 2 * np.pi)
    cr, sr = np.cos(roll), np.sin(roll)
    rot = rot @ np.array([[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]])
    return quat_from_matrix(rot)


def _make_truth_grasps(shape: Shape, hard: bool, rng: np.random.Generator
                       ) -> tuple[GroundTruthGrasp, ...]:
    n = int(rng.integers(8, 13))
    h = _shape_height(shape)
    grasps = []
    for _ in range(n):
        side = hard or rng.random() < 0.3
        # side approaches score intrinsically worse and hover right at the
        # usual detection threshold, as grasp predictors trained on mostly
        # top-down data behave: detections of them come and go with the
        # predictor noise
        quality = float(rng.uniform(0.55, 0.82) if side else rng.uniform(0.4, 1.0))
        if side:
            az = rng.uniform(0.0, 2 * np.pi)
            r = _side_radius(shape, az)
            # contact on the upper half of the side face, clear of the table
            contact = np.array([r * np.cos(az), r * np.sin(az),
                                h * rng.uniform(0.05, 0.3)])
            approach = np.array([-np.cos(az), -np.sin(az), -1.0]) / np.sqrt(2.0)
            grasps.append(GroundTruthGrasp(
                Pose3(contact, _grasp_orientation(approach, rng)),
                quality, Approach.SIDE_45))
        else:
            if isinstance(shape, Box):
                u = rng.uniform(-0.6, 0.6, size=2) * shape.half_extents[:2]
            else:
                ang = rng.uniform(0.0, 2 * np.pi)
                rad = shape.radius * rng.uniform(0.0, 0.6)
                u = np.array([rad * np.cos(ang), rad * np.sin(ang)])
            contact = np.array([u[0], u[1], h / 2.0])
            grasps.append(GroundTruthGrasp(
                Pose3(contact, _grasp_orientation(np.array([0.0, 0.0, -1.0]), rng)),
                quality, Approach.TOP_DOWN))
    return tuple(grasps)


_MAX_ATTEMPTS = 1000


def generate_scene(kind: SceneKind, hard_grasps: bool, seed: int) -> Scene:
    """Deterministic per seed.  Simple: table + 4 objects.  Complex: table +
    6 objects clustered around the target + 1 obstacle between the robot
    spawn side and the table."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5CE7E]))
    n_objects = 4 if kind is SceneKind.SIMPLE else 6

    floor = Primitive(Box(np.array([ARENA_HALF + 0.1, ARENA_HALF + 0.1, FLOOR_THICKNESS / 2])),
                      Pose3.from_xyz_yaw(0.0, 0.0, -FLOOR_THICKNESS / 2), Tag.FLOOR)
    table = Primitive(Box(np.array([TABLE_HALF, TABLE_HALF, TABLE_HEIGHT / 2])),
                      Pose3.from_xyz_yaw(0.0, 0.0, TABLE_HEIGHT / 2), Tag.TABLE)

    attempts = 0
    objects: list[Primitive] = []
    radii: list[float] = []
    centers: list[np.ndarray] = []
    shapes = [_object_shape(rng, target=(i == 0)) for i in range(n_objects)]

    # target first, near the table center
    target_xy = rng.uniform(-0.1, 0.1, size=2)
    centers.append(target_xy)
    radii.append(_shape_footprint_radius(shapes[0]))

    for i in range(1, n_objects):
        r_i = _shape_footprint_radius(shapes[i])
        while True:
            attempts += 1
            if attempts > _MAX_ATTEMPTS:
                raise SceneGenFailure(f"object placement failed for seed {seed}")
            if kind is SceneKind.COMPLEX:
                # clutter: crowd the target
                az = rng.uniform(0.0, 2 * np.pi)
                dist = rng.uniform(radii[0] + r_i + 0.01, 0.28)
                xy = target_xy + dist * np.array([np.cos(az), np.sin(az)])
            else:
                xy = rng.uniform(-TABLE_HALF + 0.08, TABLE_HALF - 0.08, size=2)
            if np.abs(xy).max() > TABLE_HALF - 0.05:
                continue
            if all(np.linalg.norm(xy - c) >= r_i + r + 0.005 for c, r in zip(centers, radii)):
                centers.append(xy)
                radii.append(r_i)
                break

    for i, (shape, xy) in enumerate(zip(shapes, centers)):
        z = TABLE_HEIGHT + _shape_height(shape) / 2.0
        yaw = rng.uniform(0.0, 2 * np.pi) if isinstance(shape, Box) else 0.0
        objects.append(Primitive(shape, Pose3.from_xyz_yaw(xy[0], xy[1], z, yaw),
                                 Tag.OBJECT, object_id=i))

    primitives = [floor, table, *objects]

    obstacle_azimuth: float | None = None
    if kind is SceneKind.COMPLEX:
        for _ in range(_MAX_ATTEMPTS):
            az = rng.uniform(0.0, 2 * np.pi)
            he = np.array([rng.uniform(0.15, 0.3), rng.uniform(0.15, 0.3),
                           rng.uniform(0.25, 0.5)])
            gap = rng.uniform(0.5, 0.9)
            dist = TABLE_HALF + gap + float(np.hypot(he[0], he[1]))
            center = dist * np.array([np.cos(az), np.sin(az)])
            obstacle = Primitive(Box(he), Pose3.from_xyz_yaw(center[0], center[1], he[2], az),
                                 Tag.OBSTACLE)
            # must obstruct the straight approach from the spawn side
            probe = np.asarray(target_xy) + 1.7 * np.array([np.cos(az), np.sin(az)])
            if _segment_blocked(obstacle, probe, np.asarray(target_xy)):
                primitives.append(obstacle)
                obstacle_azimuth = float(az)
                break
        else:
            raise SceneGenFailure(f"obstacle placement failed for seed {seed}")

    target_prim = objects[0]
    aabb = target_prim.world_aabb
    bbox = aabb.inflated(0.05)
    # the target sits on the table; nothing below the tabletop is observable
    bbox = Aabb(np.array([bbox.lo[0], bbox.lo[1], TABLE_HEIGHT]), bbox.hi)

    return Scene(
        primitives=tuple(primitives),
        target_id=0,
        target_center=target_prim.pose.position.copy(),
        target_bbox=bbox,
        arena=Aabb(np.array([-ARENA_HALF, -ARENA_HALF]), np.array([ARENA_HALF, ARENA_HALF])),
        truth_grasps=_make_truth_grasps(shapes[0], hard_grasps, rng),
        kind=kind,
        hard_grasps=hard_grasps,
        seed=int(seed),
        obstacle_azimuth=obstacle_azimuth,
    )


def _segment_blocked(prim: Primitive, a_xy: np.ndarray, b_xy: np.ndarray,
                     inflate: float = ROBOT_RADIUS) -> bool:
    """True if the 2D segment a->b passes within `inflate` of the footprint."""
    for t in np.linspace(0.0, 1.0, 40):
        p = a_xy + t * (b_xy - a_xy)
        if footprint_clearance(prim, p) < inflate:
            return True
    return False


def sample_start_pose(scene: Scene, seed: int) -> Pose2:
    """Collision-free spawn pose, 0.85..2 m from the target, facing it.
    In complex scenes the spawn is biased behind the obstacle."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x57A27]))
    t_xy = scene.target_center[:2]
    for _ in range(_MAX_ATTEMPTS):
        if scene.obstacle_azimuth is not None:
            az = scene.obstacle_azimuth + rng.uniform(-0.6, 0.6)
            dist = rng.uniform(1.4, 2.0)
        else:
            az = rng.uniform(0.0, 2 * np.pi)
            dist = rng.uniform(0.85, 2.0)
        xy = t_xy + dist * np.array([np.cos(az), np.sin(az)])
        if np.abs(xy).max() > ARENA_HALF - ROBOT_RADIUS:
            continue
        if base_pose_collides(scene, xy):
            continue
        return facing(xy, t_xy)
    raise SceneGenFailure(f"start pose sampling failed for seed {seed}")


# ---------------------------------------------------------------------------
# depth rendering
# ---------------------------------------------------------------------------

def render_depth(scene: Scene, cam: Pose3, intr: CameraIntrinsics) -> DepthImage:
    """Per-pixel nearest analytic intersection, z-depth, NaN beyond max_range.

    Each non-floor primitive is ray-tested only on the `intr.box_pixels` of
    its bounding box, in one kernel pass per shape (`_box_hits`,
    `_cylinder_hits`) with per-ray sizes.  A floor is tested last, and only
    where it can be the nearest hit in range: with its top face h below the
    camera, it meets a ray of world direction d no nearer than h / -d_z, so
    a pixel with d_z >= -h / max_range would hit it out of range (NaN either
    way), and one whose nearest hit so far is no farther keeps that hit.  h
    is shrunk by 1e-6 relative and 1 nm against rounding; a camera not above
    that tests the whole image.

    A primitive's rays enter its frame through `geom.product_rows`, and the
    camera position as both rows of a 2-row product, so every tested ray
    gets the bits of the hit `primitive_ray_hits` gives it unculled, and
    `best` their minimum in any order (`tests/test_sensing_oracle.py`).
    """
    rot = cam.rotation_matrix()
    dirs_world = intr.pixel_dirs() @ rot.T
    best = np.full(dirs_world.shape[0], np.inf)
    rotations, positions, half_extents, corners, solids, floors = scene.render_prep
    origins = (np.repeat((cam.position - positions)[:, None], 2, axis=1) @ rotations)[:, 0]

    def cast(shape: type, members: list[tuple[int, np.ndarray]]) -> None:
        # one kernel pass over the (primitive id, pixel ids) pairs of a shape
        if members := [(i, pix) for i, pix in members if pix.size]:
            ids, pixels = (list(m) for m in zip(*members))
            counts = [pix.size for pix in pixels]
            t = _HITS[shape](np.repeat(origins[ids], counts, axis=0),
                             np.concatenate([product_rows(dirs_world, pix, rotations[i])
                                             for i, pix in members]),
                             np.repeat(half_extents[ids], counts, axis=0))
            np.minimum.at(best, np.concatenate(pixels), t)

    pixels = iter(intr.box_pixels(((corners - cam.position) @ rot).reshape(-1, 8, 3)))
    for shape, ids in solids:
        cast(shape, [(i, next(pixels)) for i in ids])
    for shape, i, top in floors:
        h = (cam.position[2] - top) * (1.0 - 1e-6) - 1e-9
        pix = np.arange(best.size)
        if h > 0.0:
            d_z = dirs_world[:, 2]
            pix = np.flatnonzero(d_z < -h / intr.max_range)
            pix = pix[best[pix] > h / -d_z[pix]]
        cast(shape, [(i, pix)])
    depths = np.where(best <= intr.max_range, best, np.nan)
    return DepthImage(intr, depths.reshape(intr.height, intr.width))


# ---------------------------------------------------------------------------
# JSON-ready dict round trip (the trace meta record, replayed by render)
# ---------------------------------------------------------------------------

def _pose3_to_list(p: Pose3) -> list[float]:
    return [*map(float, p.position), *map(float, p.orientation)]


def _pose3_from_list(v: Sequence[float]) -> Pose3:
    return Pose3(np.array(v[:3]), np.array(v[3:7]))


def scene_to_dict(scene: Scene) -> dict:
    prims = []
    for p in scene.primitives:
        if isinstance(p.shape, Box):
            shape = {"type": "box", "half_extents": [*map(float, p.shape.half_extents)]}
        else:
            shape = {"type": "cylinder", "radius": p.shape.radius, "height": p.shape.height}
        prims.append({"shape": shape, "pose": _pose3_to_list(p.pose),
                      "tag": p.tag.value, "object_id": p.object_id})
    return {
        "primitives": prims,
        "target_id": scene.target_id,
        "target_center": [*map(float, scene.target_center)],
        "target_bbox": {"lo": [*map(float, scene.target_bbox.lo)],
                        "hi": [*map(float, scene.target_bbox.hi)]},
        "arena": {"lo": [*map(float, scene.arena.lo)], "hi": [*map(float, scene.arena.hi)]},
        "truth_grasps": [{"pose": _pose3_to_list(g.pose),
                          "intrinsic_quality": g.intrinsic_quality,
                          "approach": g.approach.value} for g in scene.truth_grasps],
        "kind": scene.kind.value,
        "hard_grasps": scene.hard_grasps,
        "seed": scene.seed,
        "obstacle_azimuth": scene.obstacle_azimuth,
    }


def scene_from_dict(doc: dict) -> Scene:
    prims = []
    for p in doc["primitives"]:
        sh = p["shape"]
        shape: Shape = (Box(np.array(sh["half_extents"])) if sh["type"] == "box"
                        else Cylinder(sh["radius"], sh["height"]))
        prims.append(Primitive(shape, _pose3_from_list(p["pose"]), Tag(p["tag"]),
                               p.get("object_id")))
    return Scene(
        primitives=tuple(prims),
        target_id=int(doc["target_id"]),
        target_center=np.array(doc["target_center"]),
        target_bbox=Aabb(np.array(doc["target_bbox"]["lo"]), np.array(doc["target_bbox"]["hi"])),
        arena=Aabb(np.array(doc["arena"]["lo"]), np.array(doc["arena"]["hi"])),
        truth_grasps=tuple(GroundTruthGrasp(_pose3_from_list(g["pose"]),
                                            g["intrinsic_quality"], Approach(g["approach"]))
                           for g in doc["truth_grasps"]),
        kind=SceneKind(doc["kind"]),
        hard_grasps=bool(doc["hard_grasps"]),
        seed=int(doc["seed"]),
        obstacle_azimuth=doc.get("obstacle_azimuth"),
    )
