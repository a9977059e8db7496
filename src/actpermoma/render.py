"""Deterministic top-down SVG rendering of scenes and episode traces."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geom import CellState, cells_from_rle
from .scene import Box, Cylinder, Primitive, Scene, Tag, scene_from_dict

_COLORS = {
    Tag.TABLE: "#c8a165",
    Tag.OBJECT: "#4d79ff",
    Tag.OBSTACLE: "#8c8c8c",
}
_TARGET_COLOR = "#e03a3a"
SCALE = 100.0  # px per meter


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _footprint_polygon(prim: Primitive) -> np.ndarray | None:
    if isinstance(prim.shape, Box):
        he = prim.shape.half_extents
        corners = np.array([[-he[0], -he[1], 0], [he[0], -he[1], 0],
                            [he[0], he[1], 0], [-he[0], he[1], 0]])
        world = prim.pose.transform(corners)
        return world[:, :2]
    return None


def render_topdown(scene: Scene, trace: list[dict], out_path: str | Path) -> Path:
    """Arena, primitives, final occupancy, goals, selected path, executed
    trajectory and the executed grasp as a byte-stable SVG."""
    lo_x, lo_y = scene.arena.lo
    hi_x, hi_y = scene.arena.hi
    w = (hi_x - lo_x) * SCALE
    h = (hi_y - lo_y) * SCALE

    def _to_px(xy) -> tuple[str, str]:
        # SVG y grows downward; world y grows upward
        return _fmt((xy[0] - lo_x) * SCALE), _fmt((hi_y - xy[1]) * SCALE)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">',
             f'<rect width="{w:.0f}" height="{h:.0f}" fill="#f7f7f2"/>']

    steps = [r for r in trace if r.get("type") == "step"]
    result = next((r for r in trace if r.get("type") == "result"), None)

    # occupancy snapshot (final belief)
    if result and "occupancy" in result:
        occ = result["occupancy"]
        nx, ny = occ["dims"]
        ox, oy = occ["origin"]
        cs = occ["cell_size"]
        cells = cells_from_rle(occ["rle"], (nx, ny))
        for i in range(nx):
            for j in range(ny):
                if cells[i, j] != CellState.OCCUPIED:
                    continue
                x, y = _to_px((ox + i * cs, oy + (j + 1) * cs))
                parts.append(f'<rect x="{x}" y="{y}" width="{_fmt(cs * SCALE)}" '
                             f'height="{_fmt(cs * SCALE)}" fill="#d9d2c4"/>')

    # primitives
    for prim in scene.primitives:
        if prim.tag is Tag.FLOOR:
            continue
        is_target = prim.tag is Tag.OBJECT and prim.object_id == scene.target_id
        color = _TARGET_COLOR if is_target else _COLORS[prim.tag]
        poly = _footprint_polygon(prim)
        if poly is not None:
            pts = " ".join(",".join(_to_px(p)) for p in poly)
            parts.append(f'<polygon points="{pts}" fill="{color}" fill-opacity="0.85"/>')
        else:
            assert isinstance(prim.shape, Cylinder)
            cx, cy = _to_px(prim.pose.position[:2])
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{_fmt(prim.shape.radius * SCALE)}" '
                         f'fill="{color}" fill-opacity="0.85"/>')

    # candidate goals from the last step that reported them
    for rec in reversed(steps):
        if "goals" in rec:
            for gid, gx, gy in rec["goals"]:
                cx, cy = _to_px((gx, gy))
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="none" '
                             f'stroke="#44aa55" stroke-width="1.2"/>')
            break

    # last selected path
    for rec in reversed(steps):
        if "selected_path" in rec:
            pts = " ".join(",".join(_to_px((x, y))) for x, y in rec["selected_path"])
            parts.append(f'<polyline points="{pts}" fill="none" stroke="#44aa55" '
                         f'stroke-width="1.5" stroke-dasharray="4,3"/>')
            break

    # executed trajectory: one vertex per step record plus the final pose
    traj = [(r["robot"][0], r["robot"][1]) for r in steps]
    if steps:
        last = steps[-1]
        if last.get("action", {}).get("kind") == "move":
            traj.append(tuple(last["action"]["to"][:2]))
        else:
            traj.append((last["robot"][0], last["robot"][1]))
    if traj:
        pts = " ".join(",".join(_to_px(p)) for p in traj)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#3aa7e0" '
                     f'stroke-width="2"/>')
        sx, sy = _to_px(traj[0])
        parts.append(f'<circle cx="{sx}" cy="{sy}" r="5" fill="#3aa7e0"/>')

    # marker at the executed grasp, if any
    for rec in reversed(steps):
        act = rec.get("action", {})
        if act.get("kind") == "execute":
            gx, gy = act["grasp"]["position"][:2]
            cx, cy = _to_px((gx, gy))
            parts.append(f'<path d="M {cx} {cy} m -5 -5 l 10 10 m -10 0 l 10 -10" '
                         f'stroke="#111111" stroke-width="2" fill="none"/>')
            break
    parts.append("</svg>")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(parts) + "\n")
    return out_path


def render_trace_file(trace_path: str | Path, out_path: str | Path) -> Path:
    """Render a stored episode trace; the scene is embedded in its meta record.
    A trace without one (its scene could not be generated) or with a malformed
    one is a ValueError naming the file."""
    records = [json.loads(line) for line in Path(trace_path).read_text().splitlines()
               if line.strip()]
    meta = next((r for r in records if r.get("type") == "meta"), None)
    if meta is None:
        raise ValueError(f"{trace_path} holds no scene to draw: it has no meta record")
    try:
        scene = scene_from_dict(meta["scene"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{trace_path} holds a malformed meta record: {e!r}") from None
    return render_topdown(scene, records, out_path)
