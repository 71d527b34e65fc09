import math

import numpy as np
import pytest

from ponomap import (
    RidgeSetError,
    SequencePack,
    build,
    geometric_sequence,
    harmonic_sequence,
)
from ponomap.render import (
    displacement_field,
    diverging_colors,
    eval_grid,
    grayscale,
    grid_distortion,
    jacobian_field,
    pixel_grid,
    write_grid_csv,
    write_pgm,
    write_ppm,
)
from reference_packs import pack_from_scales
from tie_points import log_pack


def test_pixel_grid_includes_boundary():
    axis = pixel_grid(5)
    assert axis[0] == -1.0 and axis[-1] == 1.0
    with pytest.raises(ValueError):
        pixel_grid(1)


def test_identity_pack_renders_flat():
    a = geometric_sequence(6)
    m = build(pack_from_scales(2, a, a))
    grid = eval_grid(m, 17)
    disp = displacement_field(grid)
    assert np.max(disp) <= 4e-16
    assert np.all(grayscale(disp) == 0)
    jac = jacobian_field(grid)
    finite = jac[np.isfinite(jac)]
    assert np.allclose(finite, 1.0, atol=1e-12)
    colors = diverging_colors(jac)
    assert np.all(colors == 255)


def test_boundary_pixels_unmoved():
    m = build(SequencePack.from_standard(2, harmonic_sequence(8)))
    res = 17
    grid = eval_grid(m, res)
    assert grid.x.shape == grid.y.shape == (res, res, 2)
    edge = np.ones((res, res), dtype=bool)
    edge[1:-1, 1:-1] = False
    assert np.all(np.abs(grid.x - grid.y).max(axis=2)[edge] <= 2e-15)


def test_depth_one_core_pixels_match_geometry():
    pack = SequencePack.from_standard(2, harmonic_sequence(1))
    m = build(pack)
    res = 41
    grid = eval_grid(m, res)
    jac = jacobian_field(grid)
    core_value = (pack.b[1] / pack.a[1]) ** 2
    # source point inside one of the four depth-1 inner cubes?
    inside = np.abs(np.abs(grid.x) - 0.5).max(axis=2) <= pack.r[1]
    assert inside.any()
    assert np.array_equal(grid.core, inside)
    assert np.all(grid.depth[inside] == 1)
    assert np.allclose(jac[inside], core_value, rtol=1e-12, atol=0.0)
    # image of a core point lies in the matching target inner cube
    assert np.all(np.abs(np.abs(grid.y[inside]) - 0.5).max(axis=1)
                  <= pack.rt[1] * (1 + 1e-12))


def pixel_fields(m, res):
    """Per-pixel reference loop: the displacement and the Jacobian (each
    call with its own descent, NaN on ridges) and the distortion grid lit
    where the preimage lies within 0.01 of one of 9 lines per axis."""
    axis = pixel_grid(res)
    spots = [-1.0 + 2.0 * i / 8 for i in range(9)]
    disp = np.empty((res, res))
    jac = np.empty((res, res))
    lines = np.zeros((res, res), dtype=np.uint8)
    for row in range(res):
        for col in range(res):
            x = (axis[col], -axis[row])
            disp[row, col] = max(abs(a - b) for a, b in zip(x, m.eval(x)))
            try:
                jac[row, col] = m.jacobian_det(x)
            except RidgeSetError:
                jac[row, col] = math.nan
            back = m.eval_inverse(x)
            if min(abs(c - s) for c in back for s in spots) <= 0.01:
                lines[row, col] = 255
    return disp, jac, lines


@pytest.mark.parametrize("pack", [
    SequencePack.from_standard(2, harmonic_sequence(8)),
    log_pack(2),
])
def test_jacobian_field_matches_per_pixel_loop(pack):
    # the displacement and distortion fields are checked against the same loop
    m = build(pack)
    res = 33
    grid = eval_grid(m, res)
    disp, jac, lines = pixel_fields(m, res)
    assert np.isnan(jac).any() and (lines == 255).any() and (lines == 0).any()
    assert np.array_equal(displacement_field(grid), disp)
    assert np.array_equal(jacobian_field(grid), jac, equal_nan=True)
    assert np.array_equal(grid_distortion(m, res), lines)


def per_pixel_grid_csv(grid, comments) -> str:
    """render_grid.csv as the per-pixel writer wrote it: every field of
    every pixel formatted on its own."""
    xs, ys = iter(grid.x.ravel().tolist()), iter(grid.y.ravel().tolist())
    return "".join([f"# {c}\n" for c in comments] + ["x1,x2,y1,y2,depth,region\n"] + [
        f"{x1!r},{x2!r},{y1!r},{y2!r},{depth},{'core' if core else 'annulus'}\n"
        for x1, x2, y1, y2, depth, core in zip(
            xs, xs, ys, ys, grid.depth.ravel().tolist(), grid.core.ravel().tolist())])


@pytest.mark.parametrize("res", [2, 3, 4, 17])
def test_grid_csv_matches_per_pixel_writer(tmp_path, res):
    # the writer formats each axis value once, read from the first row and
    # column of grid.x, so every pixel's source point must be the product
    # (axis[c], -axis[r]) bit for bit; an odd S has the -0.0 centre row
    grid = eval_grid(build(log_pack(2, 40)), res)
    axis = np.array(pixel_grid(res))
    product = np.stack(np.broadcast_arrays(axis[None, :], -axis[:, None]), axis=-1)
    assert np.array_equal(grid.x.view(np.int64), product.view(np.int64))
    path = tmp_path / "render_grid.csv"
    write_grid_csv(path, grid, ["config_digest=abc", "seed=1"])
    text = path.read_text()
    assert text == per_pixel_grid_csv(grid, ["config_digest=abc", "seed=1"])
    assert (",-0.0," in text) == (res % 2 == 1)


def test_grid_distortion_deterministic_and_binary():
    m = build(SequencePack.from_standard(2, harmonic_sequence(6)))
    img1 = grid_distortion(m, 25)
    img2 = grid_distortion(m, 25)
    assert np.array_equal(img1, img2)
    assert set(np.unique(img1)) <= {0, 255}


def test_pgm_ppm_format(tmp_path):
    arr = np.arange(16, dtype=np.uint8).reshape(4, 4)
    p = tmp_path / "x.pgm"
    write_pgm(p, arr, comments=["config_digest=abc", "seed=1"])
    data = p.read_bytes()
    assert data.startswith(b"P5\n# config_digest=abc\n# seed=1\n4 4\n255\n")
    assert data.endswith(arr.tobytes())

    rgb = np.zeros((2, 3, 3), dtype=np.uint8)
    q = tmp_path / "x.ppm"
    write_ppm(q, rgb)
    data = q.read_bytes()
    assert data.startswith(b"P6\n2 3\n255\n".replace(b"2 3", b"3 2"))
    assert len(data.split(b"255\n", 1)[1]) == 18

    with pytest.raises(ValueError):
        write_pgm(tmp_path / "bad.pgm", rgb)
