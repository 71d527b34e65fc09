"""Grid evaluation and 2-D raster output (plain PGM/PPM, CSV grids).

Pixel (row, col) of an S x S render maps to the source point

    x1 = -1 + 2*col/(S-1),    x2 = 1 - 2*row/(S-1),

so row 0 is the top edge x2 = +1 and the grid includes the boundary
exactly.  All images are pure functions of the map and resolution; byte
output is deterministic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RidgeSetError
from .mapping import PonomarevMap


@dataclass(frozen=True)
class GridSample:
    x: tuple[float, float]
    y: tuple[float, float]
    depth: int
    region: str
    jac: float  # Jacobian determinant; NaN on the ridge set


def pixel_grid(resolution: int) -> list[float]:
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    return [-1.0 + 2.0 * i / (resolution - 1) for i in range(resolution)]


def eval_grid(pmap: PonomarevMap, resolution: int) -> list[GridSample]:
    """Row-major samples over the closed cube (n = 2 only); one domain
    descent per pixel serves the image, the location and the Jacobian."""
    if pmap.n != 2:
        raise ValueError("grid rendering supports n = 2 only")
    axis = pixel_grid(resolution)
    out = []
    for row in range(resolution):
        x2 = -axis[row]
        for col in range(resolution):
            x1 = axis[col]
            x = (x1, x2)
            loc = pmap.locate(x)
            y = pmap.eval(x, loc)
            try:
                jac = pmap.jacobian_det(x, loc)
            except RidgeSetError:
                jac = math.nan
            out.append(GridSample(x=x, y=y, depth=loc.depth, region=loc.region,
                                  jac=jac))
    return out


def displacement_field(samples: Sequence[GridSample], resolution: int) -> np.ndarray:
    """Sup-norm displacement |f(x) - x| per pixel of row-major ``eval_grid``
    samples."""
    field = np.empty((resolution, resolution))
    for idx, s in enumerate(samples):
        field[idx // resolution, idx % resolution] = max(
            abs(a - b) for a, b in zip(s.x, s.y)
        )
    return field


def jacobian_field(samples: Sequence[GridSample], resolution: int) -> np.ndarray:
    """Jacobian determinant per pixel of row-major ``eval_grid`` samples;
    ridge pixels carry NaN."""
    field = np.empty((resolution, resolution))
    for idx, s in enumerate(samples):
        field[idx // resolution, idx % resolution] = s.jac
    return field


def grayscale(field: np.ndarray) -> np.ndarray:
    """Scale a non-negative field to uint8; an all-equal field maps to 0."""
    peak = float(np.nanmax(field)) if field.size else 0.0
    lo = float(np.nanmin(field)) if field.size else 0.0
    out = np.zeros(field.shape, dtype=np.uint8)
    if peak > lo:
        scaled = (field - lo) / (peak - lo)
        out = np.nan_to_num(np.round(255.0 * scaled), nan=0.0).astype(np.uint8)
    return out


def diverging_colors(field: np.ndarray) -> np.ndarray:
    """Blue-white-red ramp around value 1 on a log scale (for Jacobians)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(field)
    finite = logs[np.isfinite(logs)]
    span = float(np.max(np.abs(finite))) if finite.size else 0.0
    rgb = np.full(field.shape + (3,), 255, dtype=np.uint8)
    if span == 0.0:
        return rgb
    t = np.clip(np.nan_to_num(logs, nan=0.0, posinf=span, neginf=-span) / span, -1.0, 1.0)
    fade = np.round(255.0 * (1.0 - np.abs(t))).astype(np.uint8)
    pos = t >= 0.0
    rgb[pos, 1] = fade[pos]
    rgb[pos, 2] = fade[pos]
    rgb[~pos, 0] = fade[~pos]
    rgb[~pos, 1] = fade[~pos]
    return rgb


def grid_distortion(pmap: PonomarevMap, resolution: int, lines: int = 9,
                    thickness: float = 0.01) -> np.ndarray:
    """Image of a uniform source grid under f, drawn by inverse warping."""
    if pmap.n != 2:
        raise ValueError("grid rendering supports n = 2 only")
    if lines < 2:
        raise ValueError("lines must be >= 2")
    axis = pixel_grid(resolution)
    spots = [-1.0 + 2.0 * i / (lines - 1) for i in range(lines)]
    img = np.zeros((resolution, resolution), dtype=np.uint8)
    for row in range(resolution):
        for col in range(resolution):
            y = (axis[col], -axis[row])
            x = pmap.eval_inverse(y)
            near = min(abs(x[0] - s) for s in spots)
            near = min(near, min(abs(x[1] - s) for s in spots))
            if near <= thickness:
                img[row, col] = 255
    return img


def _write_pnm(path, magic: bytes, pixels: np.ndarray, comments: Sequence[str]) -> None:
    """Binary PNM: magic, one ``#`` line per comment, size, maxval 255, pixels."""
    h, w = pixels.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + b"\n")
        for c in comments:
            f.write(f"# {c}\n".encode())
        f.write(f"{w} {h}\n255\n".encode())
        f.write(pixels.tobytes())


def write_pgm(path, pixels: np.ndarray, comments: Sequence[str] = ()) -> None:
    """Plain binary PGM (magic P5, maxval 255)."""
    if pixels.ndim != 2 or pixels.dtype != np.uint8:
        raise ValueError("expected a 2-D uint8 array")
    _write_pnm(path, b"P5", pixels, comments)


def write_ppm(path, pixels: np.ndarray, comments: Sequence[str] = ()) -> None:
    """Plain binary PPM (magic P6, maxval 255)."""
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ValueError("expected an (h, w, 3) uint8 array")
    _write_pnm(path, b"P6", pixels, comments)


def write_grid_csv(path, samples: Sequence[GridSample],
                   comments: Sequence[str] = ()) -> None:
    with open(path, "w", newline="") as f:
        for c in comments:
            f.write(f"# {c}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["x1", "x2", "y1", "y2", "depth", "region"])
        for s in samples:
            writer.writerow([repr(s.x[0]), repr(s.x[1]), repr(s.y[0]),
                             repr(s.y[1]), s.depth, s.region])
