from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from actpermoma.geom import (
    Aabb,
    CellState,
    Grid,
    Pose2,
    Pose3,
    Ray,
    _center_offsets,
    cells_from_rle,
    cells_to_rle,
    look_at,
    quat_from_matrix,
    quat_mul,
    quat_normalize,
    quat_rotate,
    ray_aabb_interval,
    traverse_batch,
    traverse_ray,
    wrap_angle,
)
from actpermoma.perception import _voxel_ids
from actpermoma.planning import state_at


def make_grid(dims=(8, 8, 8), voxel=0.1, origin=(0.0, 0.0, 0.0)) -> Grid:
    return Grid(np.array(origin), voxel, dims, np.zeros(dims, dtype=np.uint8))


# ---------------------------------------------------------------------------
# oracle: dense sampling along the ray at voxel_size/100 steps
# ---------------------------------------------------------------------------

def sampling_traversal(grid: Grid, origin, direction, max_range, substep=100):
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    ts = np.arange(0.0, max_range, grid.cell_size / substep)
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


def chord_length(grid: Grid, origin, direction, ijk) -> float:
    """Exact length of the ray segment inside voxel ijk (0 when grazing)."""
    lo = grid.origin + np.asarray(ijk) * grid.cell_size
    box = Aabb(lo, lo + grid.cell_size)
    t0, t1 = ray_aabb_interval(np.asarray(origin)[None, :], np.asarray(direction)[None, :], box)
    return max(float(t1[0] - t0[0]), 0.0)


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
        p = rng.normal(size=(4, 3))
        assert np.allclose(a.inverse_transform(a.transform(p)), p, atol=1e-9)
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
        # the frame is built with the bits of np.cross
        z = (tgt - pos) / np.linalg.norm(tgt - pos)
        x = np.cross(z, np.array([0.0, 0.0, 1.0]))
        x /= np.linalg.norm(x)
        ref = quat_normalize(quat_from_matrix(np.column_stack([x, np.cross(z, x), z])))
        assert cam.orientation.tobytes() == ref.tobytes()
    # degenerate straight-down view still yields a unit quaternion
    cam = look_at(np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 0.0]))
    assert abs(np.linalg.norm(cam.orientation) - 1) < 1e-9


@pytest.mark.parametrize("origin,cell,dims", [((-0.3, 0.2), 0.1, (7, 5)),
                                               ((-0.3, 0.2, 0.7), 0.015, (7, 5, 9))],
                         ids=["2d", "3d"])
def test_grid_index_maps(origin, cell, dims):
    g = Grid(np.array(origin), cell, dims, np.arange(np.prod(dims)).reshape(dims))
    idx = np.argwhere(np.ones(dims, dtype=bool))  # every cell
    centers = g.index_to_world_center(idx)
    assert np.array_equal(g.world_to_index(centers), idx)
    assert np.array_equal(g.centers[tuple(idx.T)], centers)
    for a, axis in enumerate(g.axis_centers()):
        assert np.array_equal(axis[idx[:, a]], centers[:, a])
    assert g.contains_index(idx).all()
    for a, n in enumerate(dims):
        for off in (-1, n):  # one cell past either end of each axis
            assert not g.contains_index(np.where(np.arange(len(dims)) == a, off, idx)).any()
    assert (g.world_to_index(g.origin) == 0).all()
    assert not g.contains_index(g.world_to_index(g.max_corner))


@pytest.mark.parametrize("cell,dims", [(0.1, (7, 5)), (0.015, (7, 5, 9))], ids=["2d", "3d"])
def test_grid_centers_equal_indices_formula_across_origins(cell, dims):
    # grids that share dims and cell size share their cached center offsets;
    # each must still get the bits of the np.indices formula at its own origin
    rng = np.random.default_rng(len(dims))
    for origin in [np.zeros(len(dims)), *rng.uniform(-3.0, 3.0, size=(3, len(dims)))]:
        g = Grid(origin, cell, dims, np.zeros(dims))
        want = origin.reshape(-1, *[1] * len(dims)) + (np.indices(dims, dtype=float) + 0.5) * cell
        got = g.centers
        assert got.tobytes() == np.moveaxis(want, 0, -1).tobytes()
        assert np.moveaxis(got, -1, 0).flags.c_contiguous
    offsets = _center_offsets(dims, cell)
    assert not offsets.flags.writeable
    with pytest.raises(ValueError):
        offsets[(0,) * offsets.ndim] = 1.0


def test_grid_round_trip_world_index():
    g = make_grid((7, 5, 9), 0.015, (-0.3, 0.2, 0.7))
    for i in range(7):
        for j in range(5):
            for k in range(9):
                c = g.index_to_world_center(np.array([i, j, k]))
                assert tuple(g.world_to_index(c)) == (i, j, k)


def test_voxel_id_is_one_c_order_id_in_traversal_fusion_and_cells():
    # a voxel's id is the same in a traversal, in the fusion plans' id table
    # and in the flat cells: C order, z fastest
    g = make_grid((2, 3, 2), 1.0)
    g.cells = np.arange(12).reshape(2, 3, 2)  # cells[i, j, k] is its C-order id
    idx = np.argwhere(np.ones(g.dims, dtype=bool))
    # one ray per voxel, from its center along +z, cut inside that voxel
    ids, flat = next(traverse_batch(g, g.index_to_world_center(idx),
                                    np.tile([0.0, 0.0, 1.0], (12, 1)), 0.25))
    assert ids.tolist() == list(range(12))
    want = np.ravel_multi_index(idx.T, g.dims)
    assert want.tolist() == [(i * 3 + j) * 2 + k for i, j, k in idx.tolist()]
    assert np.array_equal(flat, want)
    assert np.array_equal(_voxel_ids(g.dims)[tuple(idx.T)], want)
    assert np.array_equal(g.cells.reshape(-1)[flat], g.cells[tuple(idx.T)])
    # a step along x, y or z moves the id by that axis's stride, 6, 2 or 1,
    # and traverse_ray unravels the ids back to the voxels
    start = g.index_to_world_center(np.zeros(3))
    for d, want_ids, want_ijk in [((1, 0, 0), [0, 6], [(0, 0, 0), (1, 0, 0)]),
                                  ((0, 1, 0), [0, 2, 4], [(0, 0, 0), (0, 1, 0), (0, 2, 0)]),
                                  ((0, 0, 1), [0, 1], [(0, 0, 0), (0, 0, 1)])]:
        got = [int(f[0]) for _, f in traverse_batch(g, start, np.array(d, float), 10.0)]
        assert got == want_ids
        assert traverse_ray(g, Ray(start, np.array(d, float)), 10.0) == want_ijk


def test_traverse_axis_aligned_row():
    g = make_grid((4, 4, 4), 0.1)
    ray = Ray(np.array([-0.05, 0.25, 0.25]), np.array([1.0, 0.0, 0.0]))
    seq = traverse_ray(g, ray, 2.0)
    assert seq == [(0, 2, 2), (1, 2, 2), (2, 2, 2), (3, 2, 2)]


def test_traverse_miss():
    g = make_grid()
    ray = Ray(np.array([-1.0, 0.4, 0.4]), np.array([-1.0, 0.0, 0.0]))
    assert traverse_ray(g, ray, 10.0) == []


def test_traverse_parallel_to_faces_outside_the_slab_misses():
    # a zero y component with the origin outside the grid's y slab: the line
    # never enters the grid, however far it runs along x
    g = make_grid()
    for y in (-0.5, 1.5):
        assert traverse_ray(g, Ray(np.array([-1.0, y, 0.4]), np.array([1.0, 0.0, 0.0])), 10.0) == []


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
            assert chord_length(g, origin, direction, extra) < g.cell_size / 50
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
    for ids, flat in traverse_batch(g, origins, dirs, 1.5):
        ijk = np.stack(np.unravel_index(flat, g.dims), axis=1)
        for rid, v in zip(ids, ijk):
            per_ray[int(rid)].append(tuple(int(x) for x in v))
    for i in range(40):
        assert per_ray[i] == traverse_ray(g, Ray(origins[i], dirs[i]), 1.5)


# ---------------------------------------------------------------------------
# reference: the lockstep traversal traverse_batch replaced, on (n, 3) rows
# with an argmin per iteration, yielding (ids, ijk)
# ---------------------------------------------------------------------------

def lockstep_reference(grid: Grid, origins, directions, t_max):
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
    alive = (t_entry <= t_exit) & (t_entry < tm) & np.isfinite(t_entry)
    ids = np.nonzero(alive)[0]
    if ids.size == 0:
        return
    o, d, inv, tm = o[ids], d[ids], inv[ids], tm[ids]
    t_cur = t_entry[ids]
    p = o + t_cur[:, None] * d
    s = (p - gmin) / vs
    ijk = np.floor(s).astype(np.int64)
    on_face = s == np.floor(s)
    ijk -= (on_face & (d < 0)).astype(np.int64)
    np.clip(ijk, 0, dims - 1, out=ijk)
    step = np.where(d > 0, 1, np.where(d < 0, -1, 0)).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        next_bound = gmin + (ijk + (step > 0)) * vs
        t_next = (next_bound - o) * inv
    t_next = np.where(d == 0.0, np.inf, t_next)
    t_delta = np.where(d == 0.0, np.inf, np.abs(inv) * vs)
    row3 = np.arange(0, 3 * ids.size, 3)
    while ids.size:
        yield ids, ijk
        axis = np.argmin(t_next, axis=1)
        lin = row3[:ids.size] + axis
        t_flat, ijk_flat = t_next.reshape(-1), ijk.reshape(-1)
        t_cur = t_flat[lin]
        moved = ijk_flat[lin] + step.reshape(-1)[lin]
        ijk_flat[lin] = moved
        t_flat[lin] = t_cur + t_delta.reshape(-1)[lin]
        ok = (moved >= 0) & (moved < dims[axis]) & (t_cur < tm)
        if not ok.all():
            keep = np.flatnonzero(ok)
            if keep.size == 0:
                return
            ids, ijk, t_next, t_delta, step, tm = (
                ids[keep], ijk[keep], t_next[keep], t_delta[keep], step[keep], tm[keep])


@st.composite
def traversal_cases(draw):
    """A grid and rays that start inside it, on voxel faces, edges and
    corners (the grid's own included) or outside it, with zero and negative
    direction components, and t_max random, infinite or exactly a ray's
    first boundary crossing."""
    dims = tuple(draw(st.integers(1, 8)) for _ in range(3))
    vs = draw(st.sampled_from([0.1, 0.07, 0.25]))
    g = make_grid(dims, vs, tuple(draw(st.floats(-1.0, 1.0)) for _ in range(3)))
    n = draw(st.integers(1, 12))
    origins, dirs, t_max = np.empty((n, 3)), np.empty((n, 3)), np.empty(n)
    for r in range(n):
        for a in range(3):
            # on a voxel boundary (0 and dims[a] are the grid's faces), inside
            # a voxel, or up to two voxels beyond the grid
            k = draw(st.integers(-2, dims[a] + 2))
            frac = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
            origins[r, a] = g.origin[a] + (k + frac) * vs
            dirs[r, a] = draw(st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                                        st.floats(-1.0, 1.0)))
        kind = draw(st.sampled_from(["random", "inf", "boundary"]))
        if kind == "random":
            t_max[r] = draw(st.floats(0.01, 3.0))
        elif kind == "inf":
            t_max[r] = np.inf
        else:
            # the t of the first boundary along a moving axis, as the
            # traversal computes it
            moving = np.flatnonzero(dirs[r] != 0.0)
            a = int(moving[0]) if moving.size else 0
            da = dirs[r, a] if moving.size else 1.0
            idx = np.floor((origins[r, a] - g.origin[a]) / vs) + (da > 0)
            t_max[r] = (g.origin[a] + idx * vs - origins[r, a]) * (1.0 / da)
    return g, origins, dirs, t_max


@given(traversal_cases())
@example((make_grid((4, 4, 4), 0.1), np.array([[0.2, 0.2, 0.2], [0.0, 0.0, 0.0], [0.4, 0.4, 0.4]]),
          np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, -1.0]]), 1.0))
@example((make_grid((4, 4, 4), 0.1), np.array([[-0.05, 0.25, 0.25], [-1.0, 0.4, 0.4]]),
          np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), np.array([0.25, 5.0])))
def test_traverse_batch_equals_lockstep_reference(case):
    # every iteration yields the same live rays, each at the C-order id of
    # the reference's voxel
    g, origins, dirs, t_max = case
    got = [(ids.copy(), flat.copy()) for ids, flat in traverse_batch(g, origins, dirs, t_max)]
    want = [(ids.copy(), np.ravel_multi_index(ijk.T, g.dims)) for ids, ijk in
            lockstep_reference(g, origins, dirs, t_max)]
    assert len(got) == len(want)
    for (ids, flat), (want_ids, want_flat) in zip(got, want):
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(flat, want_flat)


def test_occupancy_grid_lookup():
    occ = Grid(np.array([0.0, 0.0]), 0.1, (4, 4),
               np.full((4, 4), CellState.UNKNOWN, dtype=np.uint8))
    occ.cells[1, 2] = CellState.OCCUPIED
    assert state_at(occ, np.array([0.15, 0.25])) == CellState.OCCUPIED
    assert state_at(occ, np.array([0.05, 0.25])) == CellState.UNKNOWN
    assert state_at(occ, np.array([5.0, 5.0])) == CellState.UNKNOWN


def test_occupancy_rle_is_x_fastest_state_runs():
    cells = np.array([[0, 1], [2, 2]], dtype=np.uint8)  # cells[i, j], i along x
    assert cells_to_rle(cells) == "0x1,2x1,1x1,2x1"


def test_occupancy_rle_round_trip():
    rng = np.random.default_rng(4)
    grids = [rng.integers(0, 3, size=(int(rng.integers(1, 30)), int(rng.integers(1, 30))),
                          dtype=np.uint8) for _ in range(50)]
    # long runs, as in a projected arena
    grids += [np.repeat(rng.integers(0, 3, size=(6, 1), dtype=np.uint8), 40, axis=1)]
    grids.append(np.full((80, 80), CellState.UNKNOWN, dtype=np.uint8))  # one run
    grids.append(np.array([[s] for s in CellState], dtype=np.uint8))  # every state
    for cells in grids:
        text = cells_to_rle(cells)
        back = cells_from_rle(text, cells.shape)
        assert back.dtype == np.uint8 and back.shape == cells.shape
        assert np.array_equal(back, cells)
    assert cells_to_rle(grids[-2]) == "2x6400"


def test_aabb_contains_and_inflate():
    box = Aabb(np.zeros(3), np.ones(3))
    assert bool(box.contains(np.array([0.5, 0.5, 0.5])))
    assert not bool(box.contains(np.array([1.5, 0.5, 0.5])))
    assert bool(box.inflated(1.0).contains(np.array([1.5, 0.5, 0.5])))
