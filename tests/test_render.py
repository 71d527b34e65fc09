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
    write_pgm,
    write_ppm,
)
from tie_points import log_pack


def test_pixel_grid_includes_boundary():
    axis = pixel_grid(5)
    assert axis[0] == -1.0 and axis[-1] == 1.0
    with pytest.raises(ValueError):
        pixel_grid(1)


def test_identity_pack_renders_flat():
    a = geometric_sequence(6)
    m = build(SequencePack.from_scales(2, a, a))
    samples = eval_grid(m, 17)
    disp = displacement_field(samples, 17)
    assert np.max(disp) <= 4e-16
    assert np.all(grayscale(disp) == 0)
    jac = jacobian_field(samples, 17)
    finite = jac[np.isfinite(jac)]
    assert np.allclose(finite, 1.0, atol=1e-12)
    colors = diverging_colors(jac)
    assert np.all(colors == 255)


def test_boundary_pixels_unmoved():
    m = build(SequencePack.from_standard(2, harmonic_sequence(8)))
    res = 17
    samples = eval_grid(m, res)
    for idx, s in enumerate(samples):
        row, col = idx // res, idx % res
        if row in (0, res - 1) or col in (0, res - 1):
            assert max(abs(a - b) for a, b in zip(s.x, s.y)) <= 2e-15


def test_depth_one_core_pixels_match_geometry():
    pack = SequencePack.from_standard(2, harmonic_sequence(1))
    m = build(pack)
    res = 41
    samples = eval_grid(m, res)
    jac = jacobian_field(samples, res)
    core_value = (pack.b[1] / pack.a[1]) ** 2
    for idx, s in enumerate(samples):
        x1, x2 = s.x
        # source point inside one of the four depth-1 inner cubes?
        inside = max(abs(abs(x1) - 0.5), abs(abs(x2) - 0.5)) <= pack.r[1]
        assert (s.region == "core") == inside
        if inside:
            assert jac[idx // res, idx % res] == pytest.approx(core_value, rel=1e-12)
        # image of a core point lies in the matching target inner cube
        if inside:
            y1, y2 = s.y
            assert max(abs(abs(y1) - 0.5), abs(abs(y2) - 0.5)) <= pack.rt[1] * (1 + 1e-12)


def pixel_jacobians(m, res):
    """Per-pixel reference: jacobian_det with its own descent, NaN on ridges."""
    axis = pixel_grid(res)
    field = np.empty((res, res))
    for row in range(res):
        for col in range(res):
            try:
                field[row, col] = m.jacobian_det((axis[col], -axis[row]))
            except RidgeSetError:
                field[row, col] = math.nan
    return field


@pytest.mark.parametrize("pack", [
    SequencePack.from_standard(2, harmonic_sequence(8)),
    log_pack(2),
])
def test_jacobian_field_matches_per_pixel_loop(pack):
    m = build(pack)
    res = 33
    jac = jacobian_field(eval_grid(m, res), res)
    ref = pixel_jacobians(m, res)
    assert np.isnan(ref).any()
    assert np.array_equal(np.isnan(jac), np.isnan(ref))
    assert np.array_equal(jac, ref, equal_nan=True)


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
