from __future__ import annotations

import json

import numpy as np
import pytest

from actpermoma.geom import Aabb, Pose3, look_at, quat_to_matrix
from actpermoma.scene import (
    Approach,
    Box,
    CameraIntrinsics,
    Cylinder,
    Primitive,
    Scene,
    SceneKind,
    Tag,
    base_pose_collides,
    footprint_clearance,
    generate_scene,
    primitive_ray_hits,
    primitive_sdf,
    render_depth,
    sample_start_pose,
    scene_from_dict,
    scene_to_dict,
)

INTR = CameraIntrinsics(64, 64, np.deg2rad(60.0), 3.0)


# ---------------------------------------------------------------------------
# oracle: march along a ray, bisect the first inside/outside transition
# ---------------------------------------------------------------------------

def sampled_first_hit(prim: Primitive, origin, direction, t_hi, coarse=1e-3, tol=1e-6):
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    ts = np.arange(coarse, t_hi, coarse)
    inside = primitive_sdf(prim, origin + ts[:, None] * direction) <= 0.0
    hits = np.nonzero(inside)[0]
    if hits.size == 0:
        return np.inf
    lo = ts[hits[0]] - coarse
    hi = ts[hits[0]]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if primitive_sdf(prim, (origin + mid * direction)[None, :])[0] <= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return hi


def test_generate_scene_deterministic():
    a = generate_scene(SceneKind.SIMPLE, False, 7)
    b = generate_scene(SceneKind.SIMPLE, False, 7)
    assert scene_to_dict(a) == scene_to_dict(b)


def test_generate_scene_counts():
    simple = generate_scene(SceneKind.SIMPLE, False, 3)
    complex_ = generate_scene(SceneKind.COMPLEX, False, 3)
    by_tag = lambda s, t: [p for p in s.primitives if p.tag is t]
    assert len(by_tag(simple, Tag.OBJECT)) == 4
    assert len(by_tag(simple, Tag.TABLE)) == 1
    assert len(by_tag(simple, Tag.FLOOR)) == 1
    assert len(by_tag(simple, Tag.OBSTACLE)) == 0
    assert len(complex_.primitives) == 9  # floor + table + 6 objects + obstacle
    assert len(by_tag(complex_, Tag.OBSTACLE)) == 1


def test_hard_grasps_are_all_side():
    for seed in range(5):
        s = generate_scene(SceneKind.SIMPLE, True, seed)
        assert all(g.approach is Approach.SIDE_45 for g in s.truth_grasps)
        assert 8 <= len(s.truth_grasps) <= 12


def test_scene_generation_success_rate():
    for kind in (SceneKind.SIMPLE, SceneKind.COMPLEX):
        failures = 0
        for seed in range(200):
            try:
                generate_scene(kind, False, seed)
            except Exception:
                failures += 1
        assert failures <= 2  # >= 99% success


def test_truth_grasp_contacts_inside_bbox():
    for seed in range(10):
        s = generate_scene(SceneKind.COMPLEX, False, seed)
        for pose in s.world_truth_grasp_poses():
            assert bool(s.target_bbox.inflated(1e-9).contains(pose.position))


def test_target_bbox_contains_target():
    s = generate_scene(SceneKind.SIMPLE, False, 11)
    prim = s.target_primitive
    assert bool(s.target_bbox.contains(prim.pose.position))
    ids = [p.object_id for p in s.primitives if p.tag is Tag.OBJECT]
    assert ids.count(s.target_id) == 1


def test_objects_do_not_interpenetrate():
    for seed in range(10):
        s = generate_scene(SceneKind.COMPLEX, False, seed)
        objs = [p for p in s.primitives if p.tag is Tag.OBJECT]
        for i, a in enumerate(objs):
            for b in objs[i + 1:]:
                d = np.linalg.norm(a.pose.position[:2] - b.pose.position[:2])
                assert d > 1e-3


def test_render_empty_view_all_nan():
    s = generate_scene(SceneKind.SIMPLE, False, 1)
    # camera high above, looking straight up: nothing to hit
    cam = Pose3(np.array([0.0, 0.0, 2.0]),
                look_at(np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 5.0])).orientation)
    img = render_depth(s, cam, INTR)
    assert np.isnan(img.depths).all()


def test_render_plane_distance():
    # a lone box face 1 m in front of the camera, axis-aligned
    prim = Primitive(Box(np.array([0.5, 0.5, 0.5])), Pose3.from_xyz_yaw(1.5, 0, 0), Tag.OBSTACLE)
    scene = Scene(primitives=(prim,), target_id=0, target_center=np.zeros(3),
                  target_bbox=Aabb(np.zeros(3), np.ones(3)),
                  arena=Aabb(np.array([-3, -3]), np.array([3, 3])),
                  truth_grasps=(), kind=SceneKind.SIMPLE, hard_grasps=False, seed=0)
    cam = look_at(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    img = render_depth(scene, cam, INTR)
    center = img.depths[INTR.height // 2, INTR.width // 2]
    assert center == pytest.approx(1.0, abs=1e-6)


def test_render_matches_sampled_intersections():
    rng = np.random.default_rng(2)
    s = generate_scene(SceneKind.COMPLEX, False, 5)
    for _ in range(4):
        pos = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.9, 1.4)])
        cam = look_at(pos, s.target_center)
        img = render_depth(s, cam, INTR)
        dirs = (INTR.pixel_dirs() @ cam.rotation_matrix().T)
        flat = img.depths.reshape(-1)
        for pix in rng.choice(flat.size, size=25, replace=False):
            d = dirs[pix]
            want = min(sampled_first_hit(p, pos, d, 3.5) for p in s.primitives)
            got = flat[pix]
            if np.isnan(got):
                assert want > INTR.max_range - 1e-3
            else:
                assert got == pytest.approx(want, abs=1e-4)


def test_pixel_dirs_are_one_read_only_array_per_intrinsics():
    # every render and IG trace with these intrinsics reads the one kept
    # array: a write to it would change every later one, so it raises
    dirs = CameraIntrinsics(64, 64, np.deg2rad(60.0), 3.0).pixel_dirs()
    assert INTR.pixel_dirs() is dirs and not dirs.flags.writeable
    with pytest.raises(ValueError):
        dirs[0, 0] = 1.0
    f = INTR.focal
    u, v = np.meshgrid(np.arange(64.0), np.arange(64.0))
    want = np.stack([(u - 31.5) / f, (v - 31.5) / f, np.ones_like(u)], axis=-1).reshape(-1, 3)
    assert dirs.tobytes() == want.tobytes()


def test_row_subset_products_equal_full_rows():
    # render_depth and the IG trace rotate subsets of the pixel rays: each
    # row of `A[pix] @ M` must have the bits of that row of `A @ M` when pix
    # has 2 or more rows (one row takes the matrix-vector path, which need
    # not, so both fall back to a larger product there); render also puts
    # each primitive's camera position in as both rows of a stacked 2-row
    # product, whose rows must equal those of any larger product of it
    rng = np.random.default_rng(11)

    def rotation() -> np.ndarray:
        q = rng.normal(size=4)
        return quat_to_matrix(q / np.linalg.norm(q))

    for trial in range(60):
        a = INTR.pixel_dirs() @ rotation().T if trial % 2 else rng.normal(size=(4096, 3))
        rot = rotation()
        for m in (rot, rot.T):
            whole = (a @ m).view(np.int64)
            n = int(rng.choice([2, 3, rng.integers(2, 4097), 4096]))
            pix = rng.choice(4096, size=n, replace=False)
            if trial % 3 == 0:
                pix.sort()
            assert np.array_equal((a[pix] @ m).view(np.int64), whole[pix])
        rows = rng.normal(size=(5, 3)) * 3.0
        rots = np.stack([rotation() for _ in rows])
        stacked = (np.repeat(rows[:, None], 2, axis=1) @ rots)[:, 0].view(np.int64)
        for row, m, got in zip(rows, rots, stacked):
            many = (np.repeat(row[None], int(rng.integers(2, 4097)), axis=0) @ m).view(np.int64)
            assert (many == got).all()


def test_render_monotone_under_occlusion():
    s = generate_scene(SceneKind.SIMPLE, False, 9)
    cam = look_at(np.array([1.5, 0.2, 1.2]), s.target_center)
    base = render_depth(s, cam, INTR).depths
    blocker = Primitive(Box(np.array([0.05, 0.3, 0.3])),
                        Pose3.from_xyz_yaw(0.7, 0.1, 0.9), Tag.OBSTACLE)
    more = Scene(primitives=s.primitives + (blocker,), target_id=s.target_id,
                 target_center=s.target_center, target_bbox=s.target_bbox, arena=s.arena,
                 truth_grasps=s.truth_grasps, kind=s.kind, hard_grasps=s.hard_grasps,
                 seed=s.seed, obstacle_azimuth=s.obstacle_azimuth)
    after = render_depth(more, cam, INTR).depths
    both = np.isfinite(base) & np.isfinite(after)
    assert (after[both] <= base[both] + 1e-9).all()
    newly = np.isfinite(after) & ~np.isfinite(base)
    assert np.isfinite(after[both]).all() and newly.sum() >= 0


def test_start_pose_distance_band_and_determinism():
    for kind in (SceneKind.SIMPLE, SceneKind.COMPLEX):
        s = generate_scene(kind, False, 4)
        p1 = sample_start_pose(s, 99)
        p2 = sample_start_pose(s, 99)
        assert (p1.x, p1.y, p1.theta) == (p2.x, p2.y, p2.theta)
        d = np.linalg.norm(p1.xy - s.target_center[:2])
        assert 0.85 <= d <= 2.0


def test_start_pose_collision_free():
    for seed in range(20):
        s = generate_scene(SceneKind.COMPLEX, False, seed)
        p = sample_start_pose(s, seed + 1)
        assert not base_pose_collides(s, p.xy)


def test_footprint_clearance_signs():
    prim = Primitive(Box(np.array([0.4, 0.4, 0.375])), Pose3.from_xyz_yaw(0, 0, 0.375), Tag.TABLE)
    assert footprint_clearance(prim, np.array([0.0, 0.0])) < 0
    assert footprint_clearance(prim, np.array([1.0, 0.0])) == pytest.approx(0.6)


def test_primitive_ray_hits_cylinder():
    prim = Primitive(Cylinder(0.2, 0.4), Pose3.from_xyz_yaw(0, 0, 0.2), Tag.OBJECT, 0)
    o = np.array([[-1.0, 0.0, 0.2]])
    d = np.array([[1.0, 0.0, 0.0]])
    t = primitive_ray_hits(prim, o, d)
    assert t[0] == pytest.approx(0.8, abs=1e-9)
    # top cap
    o2 = np.array([[0.05, 0.0, 1.0]])
    d2 = np.array([[0.0, 0.0, -1.0]])
    assert primitive_ray_hits(prim, o2, d2)[0] == pytest.approx(0.6, abs=1e-9)


def test_primitive_ray_hits_box():
    prim = Primitive(Box(np.array([0.1, 0.2, 0.3])), Pose3.from_xyz_yaw(0, 0, 0.5), Tag.OBSTACLE)
    cases = [  # (origin, direction, first-hit t)
        ((0.0, 0.0, 0.5), (1.0, 0.0, 0.0), np.inf),     # origin inside: a miss
        ((-1.0, 0.1, 0.5), (1.0, 0.0, 0.0), 0.9),      # zero y, z components inside their slabs
        ((-1.0, 0.25, 0.5), (1.0, 0.0, 0.0), np.inf),  # zero y component outside its slab
        ((-0.1, 0.0, 0.5), (1.0, 0.0, 0.0), np.inf),   # starts on a face, heading in
        ((-0.1, 0.0, 0.5), (-1.0, 0.0, 0.0), np.inf),  # starts on a face, heading out
        ((-1.0, 0.0, 0.5), (-1.0, 0.0, 0.0), np.inf),  # box behind the origin
        ((-1.0, 0.0, 0.5), (2.0, 0.0, 0.0), 0.45),     # t in units of |dir|
        ((0.0, 0.0, 2.0), (0.0, 0.0, -0.5), 2.4),      # top face, |dir| = 0.5
    ]
    o = np.array([c[0] for c in cases])
    d = np.array([c[1] for c in cases])
    t = primitive_ray_hits(prim, o, d)
    assert t == pytest.approx([c[2] for c in cases], abs=1e-12)
    # yawed by 90 degrees the box's y half extent lies along world x
    turned = Primitive(prim.shape, Pose3.from_xyz_yaw(0, 0, 0.5, np.pi / 2), Tag.OBSTACLE)
    assert primitive_ray_hits(turned, o[6:7], d[6:7])[0] == pytest.approx(0.4, abs=1e-12)


def test_scene_json_round_trip():
    s = generate_scene(SceneKind.COMPLEX, True, 21)
    text = json.dumps(scene_to_dict(s), sort_keys=True)
    back = scene_from_dict(json.loads(text))
    assert json.dumps(scene_to_dict(back), sort_keys=True) == text
