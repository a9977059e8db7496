from __future__ import annotations

import numpy as np
import pytest

from actpermoma.geom import (
    Aabb,
    CellState,
    OccupancyGrid2,
    Pose2,
    Pose3,
    Ray,
    VoxelGrid3,
    look_at,
    quat_mul,
    quat_normalize,
    quat_rotate,
    traverse_batch,
    traverse_ray,
    wrap_angle,
)


def make_grid(dims=(8, 8, 8), voxel=0.1, origin=(0.0, 0.0, 0.0)) -> VoxelGrid3:
    return VoxelGrid3(np.array(origin), voxel, dims, np.zeros(dims, dtype=np.uint8))


# ---------------------------------------------------------------------------
# oracle: dense sampling along the ray at voxel_size/100 steps
# ---------------------------------------------------------------------------

def sampling_traversal(grid: VoxelGrid3, origin, direction, max_range, substep=100):
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    ts = np.arange(0.0, max_range, grid.voxel_size / substep)
    pts = np.asarray(origin, dtype=float) + ts[:, None] * direction
    idx = grid.world_to_index(pts)
    inside = grid.contains_index(idx)
    idx = idx[inside]
    seq: list[tuple[int, int, int]] = []
    for row in idx:
        t = (int(row[0]), int(row[1]), int(row[2]))
        if not seq or seq[-1] != t:
            seq.append(t)
    return seq


def chord_length(grid: VoxelGrid3, origin, direction, ijk) -> float:
    """Exact length of the ray segment inside voxel ijk (0 when grazing)."""
    lo = grid.origin + np.asarray(ijk) * grid.voxel_size
    box = Aabb(lo, lo + grid.voxel_size)
    from actpermoma.geom import ray_aabb_interval

    t0, t1 = ray_aabb_interval(np.asarray(origin)[None, :], np.asarray(direction)[None, :], box)
    return max(float(t1[0] - t0[0]), 0.0)


def test_pose2_compose_identity_and_inverse():
    p = Pose2(0.3, -1.2, 2.1)
    assert Pose2(0, 0, 0).compose(p) == p
    back = p.compose(p.inverse())
    assert abs(back.x) < 1e-9 and abs(back.y) < 1e-9 and abs(back.theta) < 1e-9


def test_pose2_compose_hand_value():
    # rotation by 90 degrees then unit translation along the rotated x axis
    r = Pose2(1.0, 0.0, np.pi / 2).compose(Pose2(1.0, 0.0, 0.0))
    assert np.allclose([r.x, r.y, r.theta], [1.0, 1.0, np.pi / 2], atol=1e-12)


def test_pose2_theta_wrapping():
    assert Pose2(0, 0, 3 * np.pi).theta == pytest.approx(np.pi)
    assert -np.pi < Pose2(0, 0, -np.pi).theta <= np.pi
    assert wrap_angle(np.pi) == pytest.approx(np.pi)


def test_pose3_compose_associativity_and_inverse():
    rng = np.random.default_rng(3)
    for _ in range(50):
        poses = [Pose3(rng.normal(size=3), quat_normalize(rng.normal(size=4))) for _ in range(3)]
        a, b, c = poses
        lhs = a.compose(b).compose(c)
        rhs = a.compose(b.compose(c))
        assert np.allclose(lhs.position, rhs.position, atol=1e-9)
        assert min(np.linalg.norm(lhs.orientation - rhs.orientation),
                   np.linalg.norm(lhs.orientation + rhs.orientation)) < 1e-9
        ident = a.compose(a.inverse())
        assert np.allclose(ident.position, 0, atol=1e-9)
        assert abs(abs(ident.orientation[0]) - 1) < 1e-9
        assert abs(np.linalg.norm(a.orientation) - 1) < 1e-9


def test_quat_rotate_matches_matrix():
    rng = np.random.default_rng(11)
    q = quat_normalize(rng.normal(size=4))
    v = rng.normal(size=(5, 3))
    m = Pose3(np.zeros(3), q).rotation_matrix()
    assert np.allclose(quat_rotate(q, v), v @ m.T, atol=1e-12)
    qq = quat_mul(q, quat_normalize(rng.normal(size=4)))
    assert np.isfinite(qq).all()


def test_look_at_points_at_target():
    rng = np.random.default_rng(5)
    for _ in range(30):
        pos = rng.normal(size=3)
        tgt = rng.normal(size=3)
        if np.linalg.norm(tgt - pos) < 1e-3:
            continue
        cam = look_at(pos, tgt)
        fwd = cam.rotation_matrix()[:, 2]
        want = (tgt - pos) / np.linalg.norm(tgt - pos)
        assert np.allclose(fwd, want, atol=1e-9)
    # degenerate straight-down view still yields a unit quaternion
    cam = look_at(np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 0.0]))
    assert abs(np.linalg.norm(cam.orientation) - 1) < 1e-9


def test_grid_round_trip_world_index():
    g = make_grid((7, 5, 9), 0.015, (-0.3, 0.2, 0.7))
    for i in range(7):
        for j in range(5):
            for k in range(9):
                c = g.index_to_world_center(np.array([i, j, k]))
                assert tuple(g.world_to_index(c)) == (i, j, k)


def test_grid_flat_index_is_x_fastest():
    g = make_grid((2, 3, 2), 1.0)
    g.cells = np.arange(12, dtype=np.uint8).reshape(2, 3, 2)  # cells[i,j,k]
    idx = np.argwhere(np.ones(g.dims, dtype=bool))
    flat = np.empty(12, dtype=np.uint8)
    flat[g.flat_index(idx)] = g.cells[idx[:, 0], idx[:, 1], idx[:, 2]]
    # expected order: (0,0,0), (1,0,0), (0,1,0), (1,1,0), (0,2,0), (1,2,0), (0,0,1), ...
    assert list(flat) == [0, 6, 2, 8, 4, 10, 1, 7, 3, 9, 5, 11]
    assert np.array_equal(flat, g.cells.ravel(order="F"))


def test_traverse_axis_aligned_row():
    g = make_grid((4, 4, 4), 0.1)
    ray = Ray(np.array([-0.05, 0.25, 0.25]), np.array([1.0, 0.0, 0.0]))
    seq = traverse_ray(g, ray, 2.0)
    assert seq == [(0, 2, 2), (1, 2, 2), (2, 2, 2), (3, 2, 2)]


def test_traverse_miss():
    g = make_grid()
    ray = Ray(np.array([-1.0, 0.4, 0.4]), np.array([-1.0, 0.0, 0.0]))
    assert traverse_ray(g, ray, 10.0) == []


def test_traverse_max_range_cut():
    g = make_grid((10, 1, 1), 0.1, (0, 0, 0))
    ray = Ray(np.array([0.05, 0.05, 0.05]), np.array([1.0, 0.0, 0.0]))
    seq = traverse_ray(g, ray, 0.35)
    assert seq == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]


def test_traverse_boundary_tie_rule():
    g = make_grid((4, 4, 4), 0.1)
    # origin exactly on the x=0.2 face: +x ray starts in voxel 2, -x ray in voxel 1
    fwd = traverse_ray(g, Ray(np.array([0.2, 0.25, 0.25]), np.array([1.0, 0, 0])), 1.0)
    bwd = traverse_ray(g, Ray(np.array([0.2, 0.25, 0.25]), np.array([-1.0, 0, 0])), 1.0)
    assert fwd[0] == (2, 2, 2)
    assert bwd[0] == (1, 2, 2)


def test_traverse_matches_sampling_oracle_random():
    rng = np.random.default_rng(42)
    n_checked = 0
    for _ in range(60):
        g = make_grid((8, 8, 8), 0.1)
        origin = rng.uniform(-0.4, 1.2, size=3)
        direction = rng.normal(size=3)
        if np.linalg.norm(direction) < 1e-6:
            continue
        direction /= np.linalg.norm(direction)
        max_range = rng.uniform(0.3, 3.0)
        got = traverse_ray(g, Ray(origin, direction), max_range)
        want = sampling_traversal(g, origin, direction, max_range)
        got_set, want_set = set(got), set(want)
        # every sampled voxel must be traversed; extras must be boundary grazes
        assert want_set <= got_set
        for extra in got_set - want_set:
            assert chord_length(g, origin, direction, extra) < g.voxel_size / 50
        n_checked += 1
    assert n_checked >= 50


def test_traverse_adjacency_no_gaps():
    rng = np.random.default_rng(7)
    g = make_grid((8, 8, 8), 0.1)
    for _ in range(100):
        origin = rng.uniform(0.05, 0.75, size=3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        seq = traverse_ray(g, Ray(origin, d), 0.6)
        for a, b in zip(seq, seq[1:]):
            diff = np.abs(np.array(a) - np.array(b))
            assert diff.sum() == 1 and diff.max() == 1  # face-adjacent steps


def test_traverse_batch_equals_scalar():
    rng = np.random.default_rng(9)
    g = make_grid((6, 7, 5), 0.07, (-0.1, 0.0, 0.1))
    origins = rng.uniform(-0.5, 1.0, size=(40, 3))
    dirs = rng.normal(size=(40, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    per_ray: dict[int, list[tuple[int, int, int]]] = {i: [] for i in range(40)}
    for ids, ijk in traverse_batch(g, origins, dirs, 1.5):
        for rid, v in zip(ids, ijk):
            per_ray[int(rid)].append(tuple(int(x) for x in v))
    for i in range(40):
        assert per_ray[i] == traverse_ray(g, Ray(origins[i], dirs[i]), 1.5)


def test_occupancy_grid_lookup():
    occ = OccupancyGrid2(np.array([0.0, 0.0]), 0.1, (4, 4),
                         np.full((4, 4), CellState.UNKNOWN, dtype=np.uint8))
    occ.cells[1, 2] = CellState.OCCUPIED
    assert occ.state_at(np.array([0.15, 0.25])) == CellState.OCCUPIED
    assert occ.state_at(np.array([5.0, 5.0])) == CellState.UNKNOWN
    assert tuple(occ.world_to_cell(np.array([0.15, 0.25]))) == (1, 2)


def test_aabb_contains_and_inflate():
    box = Aabb(np.zeros(3), np.ones(3))
    assert bool(box.contains(np.array([0.5, 0.5, 0.5])))
    assert not bool(box.contains(np.array([1.5, 0.5, 0.5])))
    assert bool(box.inflated(1.0).contains(np.array([1.5, 0.5, 0.5])))
