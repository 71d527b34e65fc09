"""The batch paths against their scalar twins.

Row by row, ``descend_batch``, ``eval_batch``, ``eval_inverse_batch`` and
``jacobian_det_batch`` must give what ``descend``, ``eval``,
``eval_inverse`` and ``jacobian_det`` give, compared by ``repr`` so that
signed zeros and the last ulp count; and ``fold_columns`` and its callers
against the axis-1 reductions that they replaced.
"""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ponomap import DomainError, GradientPower, RidgeSetError, build
from ponomap.analysis import shell_integral_mc
from ponomap.cantor import descend, descend_batch, fold_columns, in_cube
from ponomap.mapping import _RIDGE_RTOL
from reference_words import VertexWord, center
from tie_points import core_points, inner_face_points, log_pack, tie_heavy_points


@functools.lru_cache(maxsize=None)
def case(n: int):
    """The K = 40 log map, special points of each side and the images of
    the domain ones.

    The points are tie-heavy ones (uniform, boundary faces, ties on shared
    faces, cell centres, depth-K cores), points on inner faces and points
    whose coordinates are all +-1 or +-0.0; the images lie on the target
    faces, centres and cores."""
    pmap = build(log_pack(n, 40))
    rng = random.Random(n)
    pts = tie_heavy_points(n, 30, pmap.pack) + inner_face_points(pmap.pack, "domain", 60, rng)
    pts += [tuple(rng.choice((-1.0, -0.0, 0.0, 1.0)) for _ in range(n)) for _ in range(40)]
    images = [pmap.eval(x) for x in pts] + inner_face_points(pmap.pack, "target", 60, rng)
    return pmap, pts, images


def ridge_points(pack, count, rng):
    """Annulus points of depths 1-12 whose two largest |x_i - z_i| are set
    equal, so that they lie on the ridge set or within an ulp of it."""
    n = pack.n
    pts = []
    for _ in range(count):
        k = rng.randint(1, 12)
        z = center(VertexWord(n, tuple(tuple(rng.choice((-1, 1)) for _ in range(n))
                                       for _ in range(k))), pack)
        m = pack.r[k] + (pack.r[k - 1] / 2.0 - pack.r[k]) * rng.uniform(0.1, 0.9)
        u = [m * rng.uniform(-0.9, 0.9) for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        u[i], u[j] = rng.choice((-m, m)), rng.choice((-m, m))
        pts.append(tuple(z[l] + u[l] for l in range(n)))
    return pts


def ridge_edge_points(pack, count, rng):
    """Depth-1 annulus points whose two largest |u_i| differ by exactly
    _RIDGE_RTOL times the largest, where the ridge rule's ``<=`` decides,
    each with its neighbours one grid step off the ridge and onto it.

    The depth-1 centres are +-1/2, so with u on the grid of 2^-53 every
    x = z + u and x - z is exact.  The gap is drawn as a whole number of
    grid steps, and the largest |u| as the grid point that _RIDGE_RTOL
    carries onto it, until the product rounds to the gap exactly."""
    n, grid = pack.n, 2.0 ** -53
    lo, hi = math.ceil(_RIDGE_RTOL * pack.r[1] / grid), math.floor(_RIDGE_RTOL * 0.5 / grid)
    pts = []
    for _ in range(count):
        z = center(VertexWord(n, (tuple(rng.choice((-1, 1)) for _ in range(n)),)), pack)
        while True:
            gap = rng.randint(lo + 1, hi - 1) * grid
            top = round(gap / _RIDGE_RTOL / grid) * grid
            if _RIDGE_RTOL * top == gap and pack.r[1] < top < 0.5:
                break
        i, j = rng.sample(range(n), 2)
        for second in (top - gap, top - gap - grid, top - gap + grid):
            u = [round(rng.uniform(-0.9, 0.9) * second / grid) * grid for _ in range(n)]
            u[i], u[j] = rng.choice((-top, top)), rng.choice((-second, second))
            pts.append(tuple(z[l] + u[l] for l in range(n)))
    return pts


def batch_rows(d):
    """Each row of a BatchDescent as (region, depth, z, zt, m, x)."""
    return [("core" if c else "annulus", k, tuple(z), tuple(zt), m, tuple(x))
            for c, k, z, zt, m, x in zip(d.core.tolist(), d.depth.tolist(), d.z.tolist(),
                                         d.zt.tolist(), d.m.tolist(), d.x.tolist())]


def scalar_rows(pts, pack, side):
    return [(d.region, d.depth, d.z, d.zt, d.m, d.x)
            for d in (descend(x, pack, side) for x in pts)]


def assert_batch_matches_scalar(pmap, xs, ys):
    pack = pmap.pack
    for side, pts in (("domain", xs), ("target", ys)):
        got = batch_rows(descend_batch(np.array(pts), pack, side))
        assert repr(got) == repr(scalar_rows(pts, pack, side)), side
    loc = descend_batch(np.array(xs), pack)
    expect = repr([list(pmap.eval(x)) for x in xs])
    assert repr(pmap.eval_batch(np.array(xs)).tolist()) == expect
    assert repr(pmap.eval_batch(loc.x, loc).tolist()) == expect
    assert (repr(pmap.eval_inverse_batch(np.array(ys)).tolist())
            == repr([list(pmap.eval_inverse(y)) for y in ys]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_matches_scalar_on_special_points(n):
    pmap, xs, ys = case(n)
    # points of the domain are points of the target cube as well
    assert_batch_matches_scalar(pmap, xs, ys + xs)


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_batch_matches_scalar_property(n, data):
    pmap, specials, images = case(n)
    coord = st.floats(-1.0, 1.0)
    point = st.one_of(st.tuples(*[coord] * n), st.sampled_from(specials),
                      st.sampled_from(images))
    xs = data.draw(st.lists(point, min_size=1, max_size=40))
    assert_batch_matches_scalar(pmap, xs, xs + [pmap.eval(x) for x in xs])


def power_points(pmap, count, seed):
    """Uniform annulus points whose determinant factor g = alpha + beta/m
    has ``g ** (n-1)`` differ between numpy's power and Python's float
    ``**``; about one point in a thousand at n = 3."""
    pack, e = pmap.pack, pmap.n - 1
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2000 * count, pmap.n))
    d = descend_batch(x, pack)
    g = np.take(pack.alpha, d.depth) + np.take(pack.beta, d.depth) / d.m
    differ = (g ** e != np.array([v ** e for v in g.tolist()])) & ~d.core
    return [tuple(row) for row in x[differ][:count].tolist()]


@functools.lru_cache(maxsize=None)
def det_case(n: int):
    """``case(n)``'s domain points (ties, centres, cores) with ridge and
    ridge-edge points added at n > 1 and power points at n > 2."""
    pmap, pts, _ = case(n)
    rng = random.Random(10 + n)
    if n > 1:
        pts = pts + ridge_points(pmap.pack, 60, rng) + ridge_edge_points(pmap.pack, 20, rng)
    if n > 2:
        pts = pts + power_points(pmap, 10, n)
    return pmap, pts


def assert_det_batch_matches_scalar(pmap, xs):
    def det(x):
        try:
            return pmap.jacobian_det(x)
        except RidgeSetError:
            return math.nan

    expect = repr([det(x) for x in xs])
    assert repr(pmap.jacobian_det_batch(np.array(xs)).tolist()) == expect


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobian_det_batch_matches_scalar_on_special_points(n):
    pmap, xs = det_case(n)
    assert_det_batch_matches_scalar(pmap, xs)


@pytest.mark.parametrize("n", [2, 3])
def test_ridge_points_reach_the_ridge_rule(n):
    # the constructed points hit the ridge set, and one in three sits
    # exactly on the edge of the rule
    pmap = build(log_pack(n, 40))
    rng = random.Random(n)
    raised = 0
    for x in ridge_points(pmap.pack, 60, rng):
        try:
            pmap.jacobian_det(x)
        except RidgeSetError:
            raised += 1
    assert raised >= 30
    edge = ridge_edge_points(pmap.pack, 10, rng)
    for x, off in zip(edge[::3], edge[1::3]):
        for point, on_edge in ((x, True), (off, False)):
            d = pmap.locate(point)
            assert d.region == "annulus" and d.depth == 1
            mags = sorted((abs(a - b) for a, b in zip(d.x, d.z)), reverse=True)
            assert (mags[0] - mags[1] == _RIDGE_RTOL * mags[0]) is on_edge
        with pytest.raises(RidgeSetError):
            pmap.jacobian_det(x)
        assert pmap.jacobian_det(off) > 0.0


def test_power_points_exist():
    # numpy's power would round these n = 3 determinants differently
    assert len(power_points(build(log_pack(3, 40)), 10, 3)) == 10


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_jacobian_det_batch_matches_scalar_property(n, data):
    pmap, specials = det_case(n)
    point = st.one_of(st.tuples(*[st.floats(-1.0, 1.0)] * n), st.sampled_from(specials))
    assert_det_batch_matches_scalar(pmap, data.draw(st.lists(point, min_size=1, max_size=40)))


@functools.lru_cache(maxsize=None)
def wide_case(n: int):
    """The K = 40 log pack and, per side, a pool of tie-heavy points,
    inner-face points and core points of that side."""
    pack = log_pack(n, 40)
    rng = random.Random(100 + n)
    pools = {side: tie_heavy_points(n, 40, pack) + inner_face_points(pack, side, 100, rng)
             + core_points(pack, side, 100, rng) for side in ("domain", "target")}
    return pack, pools


def assert_wide_batch_matches_scalar(pack, side, pts, cut):
    """The batch of pts equals the scalar descents row by row, and the
    batches of pts[:cut] and pts[cut:] laid end to end."""
    x = np.array(pts, dtype=np.float64).reshape(len(pts), pack.n)
    got = repr(batch_rows(descend_batch(x, pack, side)))
    assert got == repr(scalar_rows(pts, pack, side)), side
    parts = [batch_rows(descend_batch(part, pack, side)) for part in (x[:cut], x[cut:])]
    assert repr(parts[0] + parts[1]) == got, (side, cut)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_wide_batch_matches_scalar_property(n, data):
    # batches wide enough that rows leave at many depths between two
    # compactions, and deep enough that the survivors reach the core
    pack, pools = wide_case(n)
    side = data.draw(st.sampled_from(("domain", "target")))
    size = data.draw(st.integers(1, 400))
    uniform = data.draw(st.floats(0.0, 1.0))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    pts = [tuple(rng.uniform(-1.0, 1.0) for _ in range(n)) if rng.random() < uniform
           else rng.choice(pools[side]) for _ in range(size)]
    pts += data.draw(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * n), max_size=4))
    assert_wide_batch_matches_scalar(pack, side, pts, data.draw(st.integers(0, len(pts))))


@pytest.mark.parametrize("side", ["domain", "target"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wide_batch_edge_cases(n, side):
    pack, pools = wide_case(n)
    rng = random.Random(n)
    faces = [(rng.choice((-1.0, 1.0)),) + tuple(rng.uniform(-1.0, 1.0) for _ in range(n - 1))
             for _ in range(300)]
    cores = core_points(pack, side, 300, rng)
    for pts in ([], pools[side][:1], faces, cores):
        assert_wide_batch_matches_scalar(pack, side, pts, len(pts) // 3)
    # a face of the cube lies outside every depth-1 inner cube
    assert descend_batch(np.array(faces), pack, side).depth.tolist() == [1] * len(faces)
    d = descend_batch(np.array(cores), pack, side)
    assert d.core.all() and (d.depth == pack.K).all()


def test_batch_of_no_points():
    pmap, _, _ = case(2)
    d = descend_batch(np.empty((0, 2)), pmap.pack)
    assert d.depth.shape == d.m.shape == (0,) and d.z.shape == (0, 2)
    assert pmap.eval_batch(np.empty((0, 2))).shape == (0, 2)
    assert pmap.eval_inverse_batch(np.empty((0, 2))).shape == (0, 2)
    assert pmap.jacobian_det_batch(np.empty((0, 2))).shape == (0,)


def test_batch_rejects_points_outside_the_cube():
    pmap, _, _ = case(2)
    with pytest.raises(DomainError, match=r"point \(nan, 0\.5\) outside"):
        descend_batch(np.array([[0.1, 0.2], [np.nan, 0.5], [2.0, 0.0]]), pmap.pack)
    with pytest.raises(DomainError, match="outside"):
        pmap.eval_inverse_batch(np.array([[1.0000000000000002, 0.0]]))
    with pytest.raises(DomainError, match="expected an"):
        descend_batch(np.zeros((3, 3)), pmap.pack)


# ---------------------------------------------------------------------------
# the column fold against the axis-1 reductions it replaced


@pytest.mark.parametrize("rows", [0, 1, 300])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_fold_columns_max_equals_the_row_max(n, rows):
    rng = np.random.default_rng(10 * n + rows)
    a = rng.standard_normal((rows, n))
    a[::5, 0] = np.inf
    a[::7, -1] = -np.inf
    a[::3, n // 2] = a[::3, 0]  # ties
    before = a.copy()
    assert (fold_columns(np.maximum, a).view(np.uint64).tolist()
            == a.max(axis=1).view(np.uint64).tolist())
    assert a.view(np.uint64).tolist() == before.view(np.uint64).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_in_cube_equals_the_bounds_test(n):
    # each special value in each column position, the others inside
    specials = [np.nan, np.inf, -np.inf, 1.0, -1.0, -0.0, 0.0,
                np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 0.5]
    x = np.full((len(specials) * n, n), 0.25)
    for i, value in enumerate(specials):
        x[i * n + np.arange(n), np.arange(n)] = value
    x = np.vstack([x, np.repeat(np.array(specials)[:, None], n, axis=1)])
    assert in_cube(x).tolist() == ((x >= -1.0) & (x <= 1.0)).all(axis=1).tolist()


def reference_shell_integral_mc(phi, r, R, n, samples, rng):
    """``shell_integral_mc`` as it took each sample's sup norm by an axis-1
    maximum."""
    pts = rng.uniform(-R, R, size=(samples, n))
    sup = np.max(np.abs(pts), axis=1)
    vals = np.zeros(samples)
    mask = (sup > r) & (sup <= R)
    vals[mask] = phi(sup[mask])
    volume = (2.0 * R) ** n
    est = volume * float(np.mean(vals))
    stderr = volume * float(np.std(vals, ddof=1)) / math.sqrt(samples)
    return est, stderr


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shell_integral_mc_matches_the_axis_reduction(n):
    pack = log_pack(n, 40)
    for seed in range(5):
        k = 1 + 7 * seed
        phi = GradientPower(pack.alpha[k], pack.beta[k], n - 0.1 * (seed + 1))
        r, R = pack.r[k], pack.r[k - 1] / 2.0
        got = shell_integral_mc(phi, r, R, n, 20_000, np.random.default_rng(seed))
        want = reference_shell_integral_mc(phi, r, R, n, 20_000, np.random.default_rng(seed))
        assert repr(got) == repr(want)
